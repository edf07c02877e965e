//! Exporters: Prometheus text exposition format and JSON lines.
//!
//! Both render from the sorted [`MetricSample`] snapshot, so the output is
//! deterministic for a given registry state (golden-file tested in
//! `tests/obs_equivalence.rs`). No external dependencies: the JSON written
//! here is assembled by hand, like the BENCH writers in `pop-bench`.

use crate::registry::{MetricSample, SampleValue};
use crate::trace::ConvergenceTrace;
use std::fmt::Write as _;

/// Render a float the way Prometheus expects: `+Inf`/`-Inf`/`NaN` words,
/// shortest-roundtrip decimal otherwise (Rust's default `Display` for f64).
fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

fn label_block(labels: &[(&'static str, &'static str)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    format!("{{{}}}", parts.join(","))
}

/// Prometheus text-format exposition of a metric snapshot.
///
/// Samples arrive sorted by (name, labels), so series of one metric are
/// contiguous and each `# TYPE` header is emitted exactly once.
pub fn prometheus(samples: &[MetricSample]) -> String {
    let mut out = String::new();
    let mut last_name = "";
    for s in samples {
        if s.name != last_name {
            let ty = match &s.value {
                SampleValue::Counter(_) | SampleValue::FloatCounter(_) => "counter",
                SampleValue::Gauge(_) => "gauge",
                SampleValue::Histogram { .. } => "histogram",
            };
            let _ = writeln!(out, "# TYPE {} {}", s.name, ty);
            last_name = s.name;
        }
        match &s.value {
            SampleValue::Counter(v) => {
                let _ = writeln!(out, "{}{} {}", s.name, label_block(&s.labels, None), v);
            }
            SampleValue::FloatCounter(v) | SampleValue::Gauge(v) => {
                let _ = writeln!(
                    out,
                    "{}{} {}",
                    s.name,
                    label_block(&s.labels, None),
                    prom_f64(*v)
                );
            }
            SampleValue::Histogram {
                bounds,
                buckets,
                count,
                sum,
            } => {
                let mut cumulative = 0u64;
                for (i, b) in buckets.iter().enumerate() {
                    cumulative += b;
                    let le = if i < bounds.len() {
                        prom_f64(bounds[i])
                    } else {
                        "+Inf".to_string()
                    };
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {}",
                        s.name,
                        label_block(&s.labels, Some(("le", &le))),
                        cumulative
                    );
                }
                let _ = writeln!(
                    out,
                    "{}_sum{} {}",
                    s.name,
                    label_block(&s.labels, None),
                    prom_f64(*sum)
                );
                let _ = writeln!(
                    out,
                    "{}_count{} {}",
                    s.name,
                    label_block(&s.labels, None),
                    count
                );
            }
        }
    }
    out
}

/// Render a JSON number; non-finite floats become `null` (JSON has no Inf).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_labels(labels: &[(&'static str, &'static str)]) -> String {
    let parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("\"{k}\":\"{v}\""))
        .collect();
    format!("{{{}}}", parts.join(","))
}

/// One metric sample as a single-line JSON object.
fn metric_json(s: &MetricSample) -> String {
    let mut o = String::new();
    let _ = write!(
        o,
        "{{\"metric\":\"{}\",\"labels\":{}",
        s.name,
        json_labels(&s.labels)
    );
    match &s.value {
        SampleValue::Counter(v) => {
            let _ = write!(o, ",\"type\":\"counter\",\"value\":{v}");
        }
        SampleValue::FloatCounter(v) => {
            let _ = write!(o, ",\"type\":\"counter\",\"value\":{}", json_f64(*v));
        }
        SampleValue::Gauge(v) => {
            let _ = write!(o, ",\"type\":\"gauge\",\"value\":{}", json_f64(*v));
        }
        SampleValue::Histogram {
            bounds,
            buckets,
            count,
            sum,
        } => {
            let bs: Vec<String> = bounds.iter().map(|b| json_f64(*b)).collect();
            let cs: Vec<String> = buckets.iter().map(|c| c.to_string()).collect();
            let _ = write!(
                o,
                ",\"type\":\"histogram\",\"bounds\":[{}],\"buckets\":[{}],\"count\":{},\"sum\":{}",
                bs.join(","),
                cs.join(","),
                count,
                json_f64(*sum)
            );
        }
    }
    o.push('}');
    o
}

/// The SLO view of a registry snapshot: every histogram sample rendered as
/// one JSON object with estimated p50/p90/p99
/// ([`crate::quantile::histogram_quantile`], linear interpolation) beside
/// count, sum, and mean. Non-histogram samples are skipped — counters and
/// gauges have no quantiles. Empty histograms render `null` quantiles so a
/// pre-traffic scrape is distinguishable from a fast one.
///
/// Sample order follows the snapshot's deterministic sort, so the output
/// is byte-stable for a given set of observations
/// (`tests/golden/slo.json`).
pub fn slo_json(samples: &[MetricSample]) -> String {
    let mut rows = Vec::new();
    for s in samples {
        if let SampleValue::Histogram {
            bounds,
            buckets,
            count,
            sum,
        } = &s.value
        {
            let mut o = String::new();
            let _ = write!(
                o,
                "{{\"metric\":\"{}\",\"labels\":{},\"count\":{},\"sum\":{}",
                s.name,
                json_labels(&s.labels),
                count,
                json_f64(*sum)
            );
            let mean = if *count > 0 {
                json_f64(*sum / *count as f64)
            } else {
                "null".to_string()
            };
            let _ = write!(o, ",\"mean\":{mean}");
            match crate::quantile::slo_quantiles(bounds, buckets) {
                Some(q) => {
                    let _ = write!(
                        o,
                        ",\"p50\":{},\"p90\":{},\"p99\":{}",
                        json_f64(q.p50),
                        json_f64(q.p90),
                        json_f64(q.p99)
                    );
                }
                None => {
                    let _ = write!(o, ",\"p50\":null,\"p90\":null,\"p99\":null");
                }
            }
            o.push('}');
            rows.push(o);
        }
    }
    let mut out = String::from("[\n");
    out.push_str(&rows.join(",\n"));
    out.push_str("\n]\n");
    out
}

/// One convergence trace as a single-line JSON object.
pub fn trace_json(t: &ConvergenceTrace) -> String {
    let mut o = String::new();
    let _ = write!(
        o,
        "{{\"trace\":\"convergence\",\"solver\":\"{}\",\"precond\":\"{}\",\"outcome\":\"{}\",\
         \"iterations\":{},\"final_rel\":{}",
        t.solver,
        t.precond,
        t.outcome,
        t.iterations,
        json_f64(t.final_rel)
    );
    match t.eigen {
        Some((nu, mu)) => {
            let _ = write!(
                o,
                ",\"eigen\":{{\"nu\":{},\"mu\":{}}}",
                json_f64(nu),
                json_f64(mu)
            );
        }
        None => o.push_str(",\"eigen\":null"),
    }
    let samples: Vec<String> = t
        .samples
        .iter()
        .map(|(it, rel)| format!("[{},{}]", it, json_f64(*rel)))
        .collect();
    let _ = write!(o, ",\"samples\":[{}]", samples.join(","));
    let restarts: Vec<String> = t.restart_iters.iter().map(|i| i.to_string()).collect();
    let _ = write!(o, ",\"restart_iters\":[{}]", restarts.join(","));
    let phases: Vec<String> = t
        .phases
        .iter()
        .map(|p| {
            format!(
                "{{\"name\":\"{}\",\"seconds\":{},\"halo_updates\":{},\"halo_messages\":{},\
                 \"halo_bytes\":{},\"allreduces\":{},\"allreduce_scalars\":{},\
                 \"allreduce_steps\":{},\"allreduce_bytes_on_wire\":{},\"barriers\":{},\
                 \"retries\":{},\"duplicates\":{},\"delivery_failures\":{}}}",
                p.name,
                json_f64(p.seconds),
                p.comm.halo_updates,
                p.comm.halo_messages,
                p.comm.halo_bytes,
                p.comm.allreduces,
                p.comm.allreduce_scalars,
                p.comm.allreduce_steps,
                p.comm.allreduce_bytes_on_wire,
                p.comm.barriers,
                p.comm.retries,
                p.comm.duplicates,
                p.comm.delivery_failures
            )
        })
        .collect();
    let _ = write!(o, ",\"phases\":[{}]}}", phases.join(","));
    o
}

/// JSON-lines export: one line per metric sample, then one per trace.
pub fn json_lines(samples: &[MetricSample], traces: &[ConvergenceTrace]) -> String {
    let mut out = String::new();
    for s in samples {
        out.push_str(&metric_json(s));
        out.push('\n');
    }
    for t in traces {
        out.push_str(&trace_json(t));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn prometheus_counter_and_gauge_lines() {
        let r = Registry::new();
        r.counter_add("pop_solves_total", &[("solver", "pcsi")], 3);
        r.gauge_set("pop_eigen_nu", &[("precond", "evp")], 0.25);
        let text = prometheus(&r.snapshot());
        assert!(text.contains("# TYPE pop_eigen_nu gauge\n"));
        assert!(text.contains("pop_eigen_nu{precond=\"evp\"} 0.25\n"));
        assert!(text.contains("# TYPE pop_solves_total counter\n"));
        assert!(text.contains("pop_solves_total{solver=\"pcsi\"} 3\n"));
    }

    #[test]
    fn prometheus_histogram_is_cumulative() {
        static BOUNDS: [f64; 2] = [1.0, 10.0];
        let r = Registry::new();
        for v in [0.5, 5.0, 50.0] {
            r.observe("h", &[], &BOUNDS, v);
        }
        let text = prometheus(&r.snapshot());
        assert!(text.contains("h_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("h_bucket{le=\"10\"} 2\n"));
        assert!(text.contains("h_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("h_sum 55.5\n"));
        assert!(text.contains("h_count 3\n"));
    }

    #[test]
    fn json_lines_parse_shape() {
        let r = Registry::new();
        r.counter_add("c", &[("a", "b")], 7);
        let out = json_lines(&r.snapshot(), &[]);
        assert_eq!(
            out,
            "{\"metric\":\"c\",\"labels\":{\"a\":\"b\"},\"type\":\"counter\",\"value\":7}\n"
        );
    }
}
