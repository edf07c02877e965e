//! What one workload process reports: named metrics with unit and sample
//! count, failures counted against attempts, and the final JSON line the
//! accepting driver reads.

use crate::json::Json;
use crate::stats;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (1 for a single measurement or a count).
    pub n: usize,
    /// Relative standard error of the value, from the spread of its own
    /// samples (0 for counts and single measurements). `bench compare`
    /// calls a row unresolved when ±2 of these exceed the bound.
    pub rel_se: f64,
    /// Free-text qualifier shown next to the number ("p99", "computed").
    pub note: String,
}

impl Metric {
    /// A single measurement or exact count.
    pub fn one(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            n: 1,
            rel_se: 0.0,
            note: String::new(),
        }
    }

    /// The median of a timing sample.
    pub fn median_of(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        Metric {
            name,
            unit,
            value: stats::median(samples),
            n: samples.len(),
            rel_se: stats::median_rel_se(samples),
            note: String::new(),
        }
    }

    pub fn with_n(mut self, n: usize) -> Metric {
        self.n = n;
        self
    }

    pub fn with_rel_se(mut self, rel_se: f64) -> Metric {
        self.rel_se = rel_se;
        self
    }

    pub fn with_note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Units of work attempted (steps, solves, requests).
    pub attempted: u64,
    /// Non-converged + rejected/shed + errored + output-check failures.
    pub failed: u64,
    /// One line per failure (capped), printed before the result.
    pub failures: Vec<String>,
    /// The frozen counts this run used (name → value), for provenance.
    pub frozen: Vec<(&'static str, f64)>,
    /// Free-text lines about the run (how disturbed the host was), printed
    /// as comments and kept in the results file.
    pub notes: Vec<String>,
}

impl Report {
    pub fn push(&mut self, m: Metric) {
        debug_assert!(
            !self.metrics.iter().any(|x| x.name == m.name),
            "metric {} reported twice",
            m.name
        );
        self.metrics.push(m);
    }

    /// Count one attempted unit; `ok == false` records a failure.
    pub fn attempt(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// A failed check that is not itself a unit of work (a hard invariant
    /// of the run, e.g. "simulated times repeat exactly").
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    /// Fold in the failures of checks made on work that is not a unit of
    /// this workload (spin-up steps, first-touch requests): they can fail
    /// the run but do not count as attempted.
    pub fn absorb_failures(&mut self, mut other: Report) {
        self.failed += other.failed;
        self.failures.append(&mut other.failures);
        self.failures.truncate(20);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Keep only the named metrics, in that order. Returns the names that
    /// were asked for but never measured — a harness bug the caller turns
    /// into a failed run rather than a silently missing key.
    pub fn select(&mut self, names: &[&'static str]) -> Vec<&'static str> {
        let mut kept = Vec::with_capacity(names.len());
        let mut missing = Vec::new();
        for &name in names {
            match self.metrics.iter().position(|m| m.name == name) {
                Some(k) => kept.push(self.metrics.swap_remove(k)),
                None => missing.push(name),
            }
        }
        self.metrics = kept;
        missing
    }

    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed`, `metrics`; each metric exactly `value` and `unit`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name,
                    Json::obj(vec![
                        ("value", Json::num(m.value)),
                        ("unit", Json::str(m.unit)),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }

    /// Everything a results file keeps per workload.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name,
                    Json::obj(vec![
                        ("value", Json::num(m.value)),
                        ("unit", Json::str(m.unit)),
                        ("n", Json::Num(m.n as f64)),
                        ("rel_se", Json::num(m.rel_se)),
                        ("note", Json::str(m.note.clone())),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "fail_frac",
                Json::num(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            (
                "frozen",
                Json::obj(
                    self.frozen
                        .iter()
                        .map(|(k, v)| (*k, Json::num(*v)))
                        .collect(),
                ),
            ),
            (
                "notes",
                Json::Arr(self.notes.iter().map(|n| Json::str(n.clone())).collect()),
            ),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// One line per metric: name, value, unit, sample count, note.
    pub fn print_human(&self, workload: &str) {
        for f in &self.failures {
            println!("FAIL [{workload}] {f}");
        }
        for n in &self.notes {
            println!("# [{workload}] {n}");
        }
        for m in &self.metrics {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!("  ({})", m.note)
            };
            println!(
                "{workload:<22} {:<38} {:>16} {:<7} n={}{note}",
                m.name,
                fmt_value(m.value),
                m.unit,
                m.n
            );
        }
        println!(
            "{workload:<22} {:<38} {:>16} {:<7} n={}",
            "fail_frac",
            fmt_value(self.failed as f64 / self.attempted.max(1) as f64),
            "ratio",
            self.attempted
        );
    }
}

/// Six significant digits, plain notation where it reads well.
pub fn fmt_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1e7 || v.abs() < 1e-3 {
        format!("{v:.5e}")
    } else {
        let digits = (5 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
        format!("{v:.digits$}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.push(Metric::one("setup_s", "s", 0.8127));
        r.push(Metric::median_of("solve_ms_p50", "ms", &[1.0, 1.2034, 3.0]));
        r.attempt(true, String::new);
        r.attempt(true, String::new);
        let line = r.result_line();
        let v = Json::parse(&line).expect("valid JSON");
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true));
        let m = v.get("metrics").unwrap().get("solve_ms_p50").unwrap();
        let mkeys: Vec<&str> = m
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(mkeys, ["value", "unit"]);
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.2034));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let mut r = Report::default();
        r.attempt(true, String::new);
        r.attempt(false, || "step 3 did not converge".to_string());
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (2, 1));
        // Nothing attempted is not a pass either.
        assert!(!Report::default().correct());
    }

    #[test]
    fn select_orders_and_reports_missing() {
        let mut r = Report::default();
        r.push(Metric::one("b", "s", 2.0));
        r.push(Metric::one("a", "s", 1.0));
        r.push(Metric::one("extra", "s", 3.0));
        let missing = r.select(&["a", "b", "c"]);
        assert_eq!(missing, ["c"]);
        let names: Vec<_> = r.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn values_format_with_six_digits() {
        assert_eq!(fmt_value(265.1234567), "265.123");
        assert_eq!(fmt_value(0.8127), "0.812700");
        assert_eq!(fmt_value(12_345_678.0), "1.23457e7");
        assert_eq!(fmt_value(0.0), "0");
    }
}
