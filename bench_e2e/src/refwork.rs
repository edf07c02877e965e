//! Reference work: how slow the host is right now.
//!
//! The shared host this benchmark runs on is disturbed by its neighbours
//! for seconds to minutes at a time: the same solve then takes up to 1.7×
//! as long, a dependent integer chain takes the same time as ever, and a
//! memory-bound sweep takes up to twice as long. Ten runs of one program
//! spread by a quarter of their median, and no statistic of the raw times
//! (median, fastest decile, minimum) repeats once a whole run is disturbed.
//!
//! So the untraced pass pins itself to one CPU (the two are disturbed
//! independently) and brackets every timed stretch of a workload with two
//! samples of a fixed piece of work that belongs to the benchmark, not to
//! the program: 9-point sweeps over a 1°-sized grid plus marching
//! recurrences over a 0.1°-sized one (the mix that tracked all four gated
//! workloads best when this was chosen — see README.md, "Host
//! correction"). The stretch's *slowdown* is the mean of its two samples
//! over [`REF_CALM_MS`], and the gated timings are wall times divided by
//! it: what the work would have taken on the calm host. The program never
//! sees any of this.

use std::hint::black_box;
use std::time::Instant;

/// One reference sample on the calm 2-core reference host, ms (the
/// fastest samples of the runs behind README.md's table). It only sets the
/// scale of the corrected times (they read as calm-host ms); it is not
/// re-measured, so that numbers from different days compare.
pub const REF_CALM_MS: f64 = 4.5;

const SWEEP_NX: usize = 324;
const SWEEP_NY: usize = 388;
const SWEEP_PASSES: usize = 4;
const MARCH_NX: usize = 904;
const MARCH_NY: usize = 604;
const MARCH_PASSES: usize = 4;

/// Resident bytes of the reference arrays (all touched at construction);
/// `peak_rss_mb` is reported net of them.
pub const BYTES: usize = 8 * (6 * SWEEP_NX * SWEEP_NY + 2 * MARCH_NX * MARCH_NY);

/// The fixed piece of work. Its loops are written with plain indexing on
/// purpose: how they compile is part of what was calibrated.
struct RefWork {
    a: Vec<f64>,
    b: Vec<f64>,
    w: [Vec<f64>; 4],
    src: Vec<f64>,
    out: Vec<f64>,
}

impl RefWork {
    fn new() -> RefWork {
        let n = SWEEP_NX * SWEEP_NY;
        let field = |s: f64| -> Vec<f64> { (0..n).map(|k| (k as f64 * s).sin() * 0.1).collect() };
        RefWork {
            a: field(0.1),
            b: vec![0.0; n],
            w: [field(0.2), field(0.3), field(0.4), field(0.5)],
            src: (0..MARCH_NX * MARCH_NY)
                .map(|k| (k as f64 * 0.1).sin())
                .collect(),
            out: vec![0.0; MARCH_NX * MARCH_NY],
        }
    }

    /// 9-point sweeps, ping-ponging two fields (weights ≤ 0.1 in size, so
    /// values shrink and stay finite).
    fn sweeps(&mut self) {
        let nx = SWEEP_NX;
        for _ in 0..SWEEP_PASSES {
            let (a, b) = (&self.a, &mut self.b);
            for j in 1..SWEEP_NY - 1 {
                for i in 1..nx - 1 {
                    let k = j * nx + i;
                    b[k] = self.w[0][k] * a[k]
                        + self.w[1][k] * (a[k - 1] + a[k + 1])
                        + self.w[2][k] * (a[k - nx] + a[k + nx])
                        + self.w[3][k]
                            * (a[k - nx - 1] + a[k - nx + 1] + a[k + nx - 1] + a[k + nx + 1]);
                }
            }
            std::mem::swap(&mut self.a, &mut self.b);
        }
        // Renormalise so that a long run never decays to denormals.
        let peak = self.a.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        if peak < 1e-100 {
            let scale = 0.1 / peak.max(f64::MIN_POSITIVE);
            self.a.iter_mut().for_each(|v| *v *= scale);
        }
        black_box(&self.a);
    }

    /// Row-by-row marching: each row from the two before it (a contraction,
    /// so values stay bounded).
    fn marches(&mut self) {
        let nx = MARCH_NX;
        for _ in 0..MARCH_PASSES {
            for j in 2..MARCH_NY {
                let (done, rest) = self.out.split_at_mut(j * nx);
                let (r2, r1) = (&done[(j - 2) * nx..(j - 1) * nx], &done[(j - 1) * nx..]);
                let row = &mut rest[..nx];
                let s = &self.src[j * nx..(j + 1) * nx];
                for i in 1..nx - 1 {
                    row[i] =
                        0.25 * (s[i] - 0.3 * r1[i] - 0.2 * r2[i] - 0.1 * (r1[i - 1] + r1[i + 1]));
                }
            }
        }
        black_box(&self.out);
    }

    fn sample_ms(&mut self) -> f64 {
        let t0 = Instant::now();
        self.sweeps();
        self.marches();
        t0.elapsed().as_secs_f64() * 1e3
    }
}

/// Brackets stretches of a workload with reference samples.
pub struct HostClock {
    /// `None` in traced and smoke runs: nothing is sampled, every slowdown
    /// is 1 (per-layer timings are raw, and stay undisturbed).
    work: Option<RefWork>,
    last_ms: f64,
    /// Every sample taken, ms.
    pub samples: Vec<f64>,
}

impl HostClock {
    /// An enabled clock first pins the process to the CPU it is on, so
    /// call this before starting any thread: the slowdown sampled must be
    /// the slowdown suffered.
    pub fn new(enabled: bool) -> HostClock {
        if enabled {
            crate::host::pin_to_current_cpu();
        }
        let mut clock = HostClock {
            work: enabled.then(RefWork::new),
            last_ms: REF_CALM_MS,
            samples: Vec::new(),
        };
        if let Some(work) = &mut clock.work {
            // Warm-up: page in the arrays and let the clocks settle.
            for _ in 0..3 {
                work.sample_ms();
            }
            clock.lap();
        }
        clock
    }

    /// Sample now. Returns the slowdown of the stretch since the previous
    /// sample: the mean of the two over the calm-host sample.
    pub fn lap(&mut self) -> f64 {
        let Some(work) = &mut self.work else {
            return 1.0;
        };
        let now = work.sample_ms();
        let slowdown = 0.5 * (self.last_ms + now) / REF_CALM_MS;
        self.last_ms = now;
        self.samples.push(now);
        slowdown
    }

    /// Bytes to take off the process's peak RSS.
    pub fn resident_bytes(&self) -> usize {
        if self.work.is_some() {
            BYTES
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_clock_reports_no_slowdown() {
        let mut c = HostClock::new(false);
        assert_eq!(c.lap(), 1.0);
        assert!(c.samples.is_empty());
        assert_eq!(c.resident_bytes(), 0);
    }

    #[test]
    fn slowdown_is_the_bracket_mean_over_the_calm_sample() {
        let mut c = HostClock::new(true);
        let before = *c.samples.last().unwrap();
        let s = c.lap();
        let after = *c.samples.last().unwrap();
        assert_eq!(s, 0.5 * (before + after) / REF_CALM_MS);
        assert!(s > 0.0 && s.is_finite());
        assert_eq!(c.resident_bytes(), BYTES);
    }

    #[test]
    fn reference_fields_stay_finite() {
        let mut w = RefWork::new();
        for _ in 0..200 {
            w.sweeps();
        }
        w.marches();
        assert!(w.a.iter().chain(&w.out).all(|v| v.is_finite()));
        assert!(w.a.iter().any(|v| v.abs() > 1e-200));
    }
}
