//! `bench compare A.json B.json`: one row per workload × end-to-end metric
//! with base, new, ratio, bound and a verdict.

use crate::catalog::{Better, END_TO_END, WORKLOADS};
use crate::json::Json;
use crate::report::fmt_value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The runs' own spread is wider than the bound: the metric cannot be
    /// called unchanged, only "not resolved at this bound".
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share of `base` by which `new` is worse (negative when it is better).
pub fn worse_by(base: f64, new: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (new - base) / base.abs(),
        Better::Higher => (base - new) / base.abs(),
    }
}

/// `noise` is twice the larger relative standard error of the two values
/// (what each run knows about its own median). A row is `worse` when the
/// worsening exceeds both the bound and the noise; failing that it is
/// `unresolved` when the noise alone exceeds the bound; otherwise `ok`.
pub fn verdict(base: f64, new: f64, better: Better, bound: f64, noise: f64) -> Verdict {
    let w = worse_by(base, new, better);
    if w > bound && w > noise {
        Verdict::Worse
    } else if noise > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: String,
    pub base: f64,
    pub new: f64,
    pub bound: f64,
    pub noise: f64,
    pub verdict: Verdict,
}

fn metric_of<'a>(file: &'a Json, workload: &str, metric: &str) -> Option<&'a Json> {
    file.get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)
}

fn field(m: &Json, key: &str) -> f64 {
    m.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Rows for every workload both files hold. `fail_frac` rides along with an
/// absolute bound of zero: any new failure is `worse`.
pub fn rows(base: &Json, new: &Json) -> Vec<Row> {
    let mut out = Vec::new();
    for w in WORKLOADS.iter().map(|w| w.name) {
        for e in &END_TO_END {
            let (Some(b), Some(n)) = (metric_of(base, w, e.name), metric_of(new, w, e.name)) else {
                continue;
            };
            let (bv, nv) = (field(b, "value"), field(n, "value"));
            let noise = 2.0 * field(b, "rel_se").max(field(n, "rel_se"));
            out.push(Row {
                workload: w.to_string(),
                metric: e.name,
                unit: b
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or(e.unit)
                    .to_string(),
                base: bv,
                new: nv,
                bound: e.bound,
                noise,
                verdict: verdict(bv, nv, e.better, e.bound, noise),
            });
        }
        let frac = |f: &Json| f.get("workloads")?.get(w)?.get("fail_frac")?.as_f64();
        if let (Some(bv), Some(nv)) = (frac(base), frac(new)) {
            out.push(Row {
                workload: w.to_string(),
                metric: "fail_frac",
                unit: "ratio".to_string(),
                base: bv,
                new: nv,
                bound: 0.0,
                noise: 0.0,
                verdict: if nv > bv { Verdict::Worse } else { Verdict::Ok },
            });
        }
    }
    out
}

pub fn print(rows: &[Row]) {
    println!(
        "{:<22} {:<16} {:>14} {:>14} {:<6} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "base", "new", "unit", "ratio", "bound", "noise"
    );
    for r in rows {
        println!(
            "{:<22} {:<16} {:>14} {:>14} {:<6} {:>8.4} {:>7.3} {:>7.3}  {}",
            r.workload,
            r.metric,
            fmt_value(r.base),
            fmt_value(r.new),
            r.unit,
            if r.base != 0.0 {
                r.new / r.base
            } else {
                f64::NAN
            },
            r.bound,
            r.noise,
            r.verdict.label()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} rows: {} ok, {} worse, {} unresolved",
        rows.len(),
        count(Verdict::Ok),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    );
}

/// Load two result files, print the table; `Ok(true)` when no row is worse.
pub fn run(base_path: &str, new_path: &str) -> Result<bool, String> {
    let load = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (base, new) = (load(base_path)?, load(new_path)?);
    let rows = rows(&base, &new);
    if rows.is_empty() {
        return Err("the two files share no workload × metric".to_string());
    }
    print(&rows);
    Ok(rows.iter().all(|r| r.verdict != Verdict::Worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        use Better::{Higher, Lower};
        // (Verdicts are about a bound, whatever the catalogue's bounds are.)
        // 5 % slower against a 10 % bound, quiet runs.
        assert_eq!(verdict(100.0, 105.0, Lower, 0.10, 0.01), Verdict::Ok);
        // 15 % slower: beyond the bound and the noise.
        assert_eq!(verdict(100.0, 115.0, Lower, 0.10, 0.01), Verdict::Worse);
        // 15 % slower but the runs only know their medians to ±20 %.
        assert_eq!(
            verdict(100.0, 115.0, Lower, 0.10, 0.20),
            Verdict::Unresolved
        );
        // Faster is never worse, but noisy runs still resolve nothing.
        assert_eq!(verdict(100.0, 80.0, Lower, 0.10, 0.01), Verdict::Ok);
        assert_eq!(verdict(100.0, 99.0, Lower, 0.10, 0.30), Verdict::Unresolved);
        // Far beyond even a wide noise band.
        assert_eq!(verdict(100.0, 300.0, Lower, 0.10, 0.30), Verdict::Worse);
        // Throughput: lower is worse.
        assert_eq!(verdict(50.0, 40.0, Higher, 0.10, 0.0), Verdict::Worse);
        assert_eq!(verdict(50.0, 60.0, Higher, 0.10, 0.0), Verdict::Ok);
        assert!((worse_by(50.0, 40.0, Higher) - 0.2).abs() < 1e-12);
        // Identical counts with a tight bound.
        assert_eq!(verdict(101.667, 101.667, Lower, 0.02, 0.0), Verdict::Ok);
    }

    fn file(ms: f64, rel_se: f64, fail: f64) -> Json {
        let m = |v: f64| {
            Json::obj(vec![
                ("value", Json::Num(v)),
                ("unit", Json::str("ms")),
                ("n", Json::Num(30.0)),
                ("rel_se", Json::Num(rel_se)),
            ])
        };
        Json::obj(vec![(
            "workloads",
            Json::obj(vec![(
                "gyre_minipop",
                Json::obj(vec![
                    ("fail_frac", Json::Num(fail)),
                    ("metrics", Json::obj(vec![("solve_ms_p50", m(ms))])),
                ]),
            )]),
        )])
    }

    #[test]
    fn rows_pair_up_shared_metrics() {
        let rows = rows(&file(2.0, 0.001, 0.0), &file(3.0, 0.001, 0.01));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].metric, "solve_ms_p50");
        assert_eq!(rows[0].verdict, Verdict::Worse);
        assert_eq!(rows[1].metric, "fail_frac");
        assert_eq!(rows[1].verdict, Verdict::Worse);
        let same = super::rows(&file(2.0, 0.0, 0.0), &file(2.0, 0.0, 0.0));
        assert!(same.iter().all(|r| r.verdict == Verdict::Ok));
    }
}
