//! The six workloads. Each runs in its own process (`bench --workload X`):
//! set-up, a timed main loop over frozen unit counts, output checks outside
//! the timed regions, and — in the traced pass — the layer ladder on the
//! workload's own operator.

pub mod gyre;
pub mod ranks;
pub mod serve;
pub mod step;

use crate::catalog::RUN_SECONDS;
use crate::refwork::HostClock;
use crate::report::{Metric, Report};
use crate::trace::Tracer;
use pop_comm::{CommWorld, DistVec};
use pop_stencil::NinePoint;
use std::time::Instant;

/// What a workload is asked to do.
pub struct Ctx<'a> {
    pub seed: u64,
    /// Measurement budget (`--seconds`); unit counts scale with it.
    pub seconds: f64,
    pub trace: bool,
    /// Shrink everything to well under two seconds (never recordable).
    pub smoke: bool,
    pub tracer: &'a Tracer,
}

impl Ctx<'_> {
    /// Units of work to run: the count frozen for the reference run length
    /// ([`RUN_SECONDS`]), scaled to this run's `--seconds`. Counts — not a
    /// stopwatch — end the loop, so iteration totals and simulated times
    /// repeat exactly for a given `--seconds`.
    pub fn units(&self, frozen: usize, floor: usize) -> usize {
        if self.smoke {
            return floor;
        }
        let scaled = frozen as f64 * self.seconds / RUN_SECONDS as f64;
        (scaled.round() as usize).max(floor)
    }
}

/// Times the cold constructions behind `setup_s` (their median is
/// reported), and carries the run's [`HostClock`].
///
/// The host this was written on slows down by up to half for seconds to
/// minutes at a time, so constructions timed in one burst all land in the
/// same mood. Half of them are therefore taken before the main loop and
/// half after it, cheap constructions are repeated more often (about 0.3 s
/// per side, 2 to 25 repetitions), and each side is bracketed by reference
/// samples and divided by the slowdown they show.
pub struct SetupClock {
    pub host: HostClock,
    samples: Vec<f64>,
    per_side: usize,
}

impl SetupClock {
    /// Traced and smoke runs measure the host not at all: their timings
    /// are reported as measured.
    pub fn new(ctx: &Ctx) -> SetupClock {
        SetupClock {
            host: HostClock::new(!(ctx.trace || ctx.smoke)),
            samples: Vec::new(),
            per_side: 0,
        }
    }

    fn timed<T>(build: &mut impl FnMut() -> T) -> (T, f64) {
        let t0 = Instant::now();
        let built = build();
        (built, t0.elapsed().as_secs_f64())
    }

    /// Construct repeatedly, dropping each instance before the next is
    /// built (so peak memory is one instance), and keep the last.
    pub fn before<T>(&mut self, ctx: &Ctx, mut build: impl FnMut() -> T) -> T {
        self.host.lap();
        let (mut kept, first) = Self::timed(&mut build);
        let mut wall = vec![first];
        self.per_side = if ctx.smoke || ctx.trace {
            1
        } else {
            ((0.3 / first).ceil() as usize).clamp(2, 25)
        };
        for _ in 1..self.per_side {
            drop(kept);
            let (next, secs) = Self::timed(&mut build);
            kept = next;
            wall.push(secs);
        }
        self.close_side(&wall);
        kept
    }

    /// The second half, after the main loop; the caller has dropped the
    /// instance it ran on. Traced and smoke runs skip it.
    pub fn after<T>(&mut self, ctx: &Ctx, mut build: impl FnMut() -> T) {
        if ctx.smoke || ctx.trace {
            return;
        }
        self.host.lap();
        let wall: Vec<f64> = (0..self.per_side)
            .map(|_| Self::timed(&mut build).1)
            .collect();
        self.close_side(&wall);
    }

    fn close_side(&mut self, wall: &[f64]) {
        let slowdown = self.host.lap();
        self.samples.extend(wall.iter().map(|s| s / slowdown));
    }

    pub fn push_metric(&self, report: &mut Report) {
        report.push(Metric::median_of("setup_s", "s", &self.samples));
    }
}

pub fn run(name: &str, ctx: &Ctx) -> Option<Report> {
    Some(match name {
        "step_1deg_pcsi_evp" => step::run(ctx, &step::one_degree(ctx.smoke)),
        "step_0p1deg_cg_diag" => step::run(ctx, &step::tenth_degree(ctx.smoke)),
        "gyre_minipop" => gyre::run(ctx),
        "ranks_1024" => ranks::run(ctx),
        "serve_open_warm" => serve::run_open(ctx),
        "serve_closed_coalesce" => serve::run_closed(ctx),
        _ => return None,
    })
}

/// `‖b − A x‖ / ‖b‖`, recomputed from scratch with `NinePoint::apply` on a
/// private world (so the check neither touches the program's state nor its
/// communication counters).
pub fn true_rel_residual(op: &NinePoint, b: &DistVec, x: &DistVec) -> f64 {
    let world = CommWorld::serial();
    let mut xc = x.clone();
    let mut r = DistVec::zeros(&op.layout);
    op.residual(&world, &mut xc, b, &mut r);
    (world.norm2_sq(&r) / world.norm2_sq(b).max(1e-300)).sqrt()
}

/// Bitwise equality of two fields' interiors.
pub fn bitwise_equal(a: &DistVec, b: &DistVec) -> bool {
    a.blocks.len() == b.blocks.len()
        && a.blocks.iter().zip(&b.blocks).all(|(ba, bb)| {
            (0..ba.ny).all(|j| {
                ba.interior_row(j)
                    .iter()
                    .zip(bb.interior_row(j))
                    .all(|(x, y)| x.to_bits() == y.to_bits())
            })
        })
}
