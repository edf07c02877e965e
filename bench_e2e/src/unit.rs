//! Timings of a workload's unit of work (a barotropic step, a model step,
//! a 1024-rank solve, a served request) and the metrics derived from them.

use crate::host;
use crate::refwork::{HostClock, REF_CALM_MS};
use crate::report::{Metric, Report};
use crate::stats;
use std::time::Duration;

#[derive(Debug, Default, Clone)]
pub struct UnitTimes {
    /// Time of each unit, ms. In the untraced pass this is the wall time
    /// divided by the host's slowdown while the unit ran (see `refwork`);
    /// in the traced pass it is the wall time as measured.
    pub ms: Vec<f64>,
    /// Wall time of each unit as measured, ms (untraced pass only).
    pub wall_ms: Vec<f64>,
}

impl UnitTimes {
    pub fn push(&mut self, d: Duration) {
        self.ms.push(d.as_secs_f64() * 1e3);
    }

    /// A unit that took `wall_ms` while the host ran `slowdown` times
    /// slower than calm.
    pub fn push_corrected(&mut self, wall_ms: f64, slowdown: f64) {
        self.ms.push(wall_ms / slowdown);
        self.wall_ms.push(wall_ms);
    }

    pub fn total_s(&self) -> f64 {
        self.ms.iter().sum::<f64>() * 1e-3
    }

    /// The end-to-end metrics every workload shares. `timed_wall_s` is the
    /// host-corrected wall time the units completed in (the sum of unit
    /// times when they ran back to back; the loop's wall time when they
    /// overlapped).
    pub fn push_end_to_end_over(
        &self,
        report: &mut Report,
        iters_per_solve: f64,
        timed_wall_s: f64,
        host: &HostClock,
    ) {
        let n = self.ms.len();
        let se = stats::median_rel_se(&self.ms);
        report.push(Metric::median_of("solve_ms_p50", "ms", &self.ms));
        report.push(
            Metric::one("solves_per_s", "1/s", n as f64 / timed_wall_s)
                .with_n(n)
                .with_rel_se(se),
        );
        report.push(Metric::one("iters_per_solve", "count", iters_per_solve).with_n(n));
        // Net of the reference arrays, which are resident from before the
        // first construction to after the last.
        let rss = host::peak_rss_mib().unwrap_or(f64::NAN);
        report.push(Metric::one(
            "peak_rss_mb",
            "MiB",
            rss - host.resident_bytes() as f64 / (1024.0 * 1024.0),
        ));
        if !host.samples.is_empty() && !self.wall_ms.is_empty() {
            report.notes.push(format!(
                "host slowdown over {} reference samples: median x{:.2} (fastest x{:.2}, slowest x{:.2}); \
                 unit wall time as measured: median {:.4} ms",
                host.samples.len(),
                stats::median(&host.samples) / REF_CALM_MS,
                stats::percentile(&host.samples, 0.0) / REF_CALM_MS,
                stats::percentile(&host.samples, 100.0) / REF_CALM_MS,
                stats::median(&self.wall_ms),
            ));
        }
    }

    /// Units that ran back to back: throughput over the sum of unit times.
    pub fn push_end_to_end(&self, report: &mut Report, iters_per_solve: f64, host: &HostClock) {
        self.push_end_to_end_over(report, iters_per_solve, self.total_s(), host);
    }

    /// Traced-pass metrics of the unit itself: its tail, and how much
    /// tracing cost against the same units run plain (`plain`).
    pub fn push_unit_layer(&self, report: &mut Report, plain: &UnitTimes) {
        let (pct, tail) = stats::tail(&self.ms);
        report.push(
            Metric::one("unit.ms_tail", "ms", tail)
                .with_n(self.ms.len())
                .with_note(format!("p{pct}")),
        );
        report.push(Metric::one("unit.tail_percentile", "%", pct).with_n(self.ms.len()));
        report.push(Metric::one("unit.count", "count", self.ms.len() as f64));
        report.push(Metric::median_of("unit.ms_p50", "ms", &plain.ms).with_note("untraced units"));
        report.push(
            Metric::one(
                "bench.trace_overhead_frac",
                "ratio",
                stats::median(&self.ms) / stats::median(&plain.ms) - 1.0,
            )
            .with_n(self.ms.len().min(plain.ms.len()))
            .with_note("traced ÷ plain median unit time − 1"),
        );
    }
}
