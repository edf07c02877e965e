//! The `ObsSink` handle the solvers carry and the per-solve `SolveObs`
//! recorder it hands out.
//!
//! Design rule: a disabled sink must cost *nothing* on the solver hot path —
//! no allocation, no atomic traffic, no `Instant::now()`. Every `SolveObs`
//! method is `#[inline]` and begins with an `Option` check that the
//! optimizer folds away when the solver runs with the default (disabled)
//! sink; anything expensive a caller would pass (a `StatsSnapshot` read) is
//! taken as an `FnOnce` closure so it is only evaluated when the sink is
//! live. The zero-allocation guarantee is enforced by `tests/zero_alloc.rs`,
//! and bit-identical solver output with obs on or off by
//! `tests/obs_equivalence.rs` — the recorder only ever *reads* communicator
//! statistics, never issues communication.

use crate::export;
use crate::registry::{MetricSample, Registry};
use crate::trace::{ConvergenceTrace, PhaseComm};
use pop_comm::StatsSnapshot;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Log-spaced buckets for checked relative residuals (1e-16 … 1e2).
pub static RESIDUAL_BUCKETS: [f64; 10] =
    [1e-16, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1.0, 1e2];

/// Shared state behind an enabled sink.
pub struct ObsCore {
    registry: Registry,
    traces: Mutex<Vec<ConvergenceTrace>>,
}

/// The observability handle threaded through `SolverConfig`.
///
/// Cloning is cheap (an `Arc` bump, or nothing when disabled). The default
/// sink is disabled; [`ObsSink::enabled`] turns telemetry on.
#[derive(Clone, Default)]
pub struct ObsSink(Option<Arc<ObsCore>>);

impl std::fmt::Debug for ObsSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ObsSink({})",
            if self.0.is_some() { "on" } else { "off" }
        )
    }
}

impl ObsSink {
    /// The no-op sink (same as `Default`).
    pub fn disabled() -> ObsSink {
        ObsSink(None)
    }

    /// A live sink with a fresh registry and trace store.
    pub fn enabled() -> ObsSink {
        ObsSink(Some(Arc::new(ObsCore {
            registry: Registry::new(),
            traces: Mutex::new(Vec::new()),
        })))
    }

    pub fn is_active(&self) -> bool {
        self.0.is_some()
    }

    /// The metrics registry, when live. Non-solver instrumentation (the
    /// ranksim span merge, benchmark harnesses) records through this.
    pub fn registry(&self) -> Option<&Registry> {
        self.0.as_deref().map(|c| &c.registry)
    }

    /// Snapshot of every registered metric series (empty when disabled).
    pub fn metrics(&self) -> Vec<MetricSample> {
        match &self.0 {
            Some(core) => core.registry.snapshot(),
            None => Vec::new(),
        }
    }

    /// Traces collected so far (clones; empty when disabled).
    pub fn traces(&self) -> Vec<ConvergenceTrace> {
        match &self.0 {
            Some(core) => core.traces.lock().expect("trace store poisoned").clone(),
            None => Vec::new(),
        }
    }

    /// Prometheus text-format exposition of the current registry contents.
    pub fn prometheus(&self) -> String {
        export::prometheus(&self.metrics())
    }

    /// JSON-lines export: one line per metric sample, then one line per
    /// convergence trace.
    pub fn json_lines(&self) -> String {
        export::json_lines(&self.metrics(), &self.traces())
    }

    /// Begin recording one solve. `start` is the communicator's stats
    /// snapshot from the top of the solve; on the disabled sink the returned
    /// recorder is a no-op shell.
    #[inline]
    pub fn begin_solve(
        &self,
        solver: &'static str,
        precond: &'static str,
        start: StatsSnapshot,
    ) -> SolveObs {
        match &self.0 {
            None => SolveObs(None),
            Some(core) => SolveObs(Some(Box::new(SolveObsInner {
                core: Arc::clone(core),
                solver,
                precond,
                eigen: None,
                restarts: Vec::new(),
                phases: Vec::new(),
                last_stats: start,
                last_instant: Instant::now(),
            }))),
        }
    }
}

struct SolveObsInner {
    core: Arc<ObsCore>,
    solver: &'static str,
    precond: &'static str,
    eigen: Option<(f64, f64)>,
    restarts: Vec<usize>,
    /// Accumulated (name, comm delta, seconds) per phase, in first-seen
    /// order. Linear scan: there are four phase names.
    phases: Vec<(&'static str, StatsSnapshot, f64)>,
    last_stats: StatsSnapshot,
    last_instant: Instant,
}

impl SolveObsInner {
    /// Attribute everything since the last mark to `name`.
    fn mark(&mut self, name: &'static str, now_stats: StatsSnapshot) {
        let now_instant = Instant::now();
        let delta = now_stats.since(&self.last_stats);
        let secs = now_instant.duration_since(self.last_instant).as_secs_f64();
        self.last_stats = now_stats;
        self.last_instant = now_instant;
        if let Some((_, acc, t)) = self.phases.iter_mut().find(|(n, _, _)| *n == name) {
            acc.halo_updates += delta.halo_updates;
            acc.halo_messages += delta.halo_messages;
            acc.halo_bytes += delta.halo_bytes;
            acc.allreduces += delta.allreduces;
            acc.allreduce_scalars += delta.allreduce_scalars;
            acc.allreduce_steps += delta.allreduce_steps;
            acc.allreduce_bytes_on_wire += delta.allreduce_bytes_on_wire;
            acc.barriers += delta.barriers;
            acc.retries += delta.retries;
            acc.duplicates += delta.duplicates;
            acc.delivery_failures += delta.delivery_failures;
            *t += secs;
        } else {
            self.phases.push((name, delta, secs));
        }
    }
}

/// Per-solve recorder handed out by [`ObsSink::begin_solve`]. All methods
/// are no-ops on the disabled sink; closures passed for statistics reads are
/// only evaluated when the sink is live.
pub struct SolveObs(Option<Box<SolveObsInner>>);

impl SolveObs {
    /// A recorder that records nothing (what a disabled sink hands out).
    pub fn noop() -> SolveObs {
        SolveObs(None)
    }

    #[inline]
    pub fn is_active(&self) -> bool {
        self.0.is_some()
    }

    /// Record the Chebyshev eigenbound estimate used by the solve.
    #[inline]
    pub fn eigen(&mut self, nu: f64, mu: f64) {
        if let Some(inner) = &mut self.0 {
            inner.eigen = Some((nu, mu));
        }
    }

    /// Record a recovery restart at `iteration`.
    #[inline]
    pub fn restart(&mut self, iteration: usize) {
        if let Some(inner) = &mut self.0 {
            inner.restarts.push(iteration);
        }
    }

    /// Close the current phase: attribute all communicator events and wall
    /// time since the previous mark to `name`. The stats read is a closure
    /// so the disabled path never touches the communicator's atomics.
    #[inline]
    pub fn phase(&mut self, name: &'static str, now: impl FnOnce() -> StatsSnapshot) {
        if let Some(inner) = &mut self.0 {
            let stats = now();
            inner.mark(name, stats);
        }
    }

    /// Finish the solve: flush the trailing phase as "finalize", build the
    /// [`ConvergenceTrace`], and push the solve's metrics into the registry.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn finish(
        self,
        outcome: &'static str,
        final_rel: f64,
        iterations: usize,
        matvecs: usize,
        precond_applies: usize,
        history: &[(usize, f64)],
        end: impl FnOnce() -> StatsSnapshot,
    ) {
        let Some(mut inner) = self.0 else { return };
        let stats = end();
        inner.mark("finalize", stats);

        let reg = &inner.core.registry;
        let solver = inner.solver;
        let precond = inner.precond;
        reg.counter_add(
            "pop_solves_total",
            &[
                ("outcome", outcome),
                ("precond", precond),
                ("solver", solver),
            ],
            1,
        );
        reg.counter_add(
            "pop_solve_iterations_total",
            &[("precond", precond), ("solver", solver)],
            iterations as u64,
        );
        reg.counter_add(
            "pop_solve_restarts_total",
            &[("precond", precond), ("solver", solver)],
            inner.restarts.len() as u64,
        );
        reg.counter_add("pop_matvecs_total", &[("solver", solver)], matvecs as u64);
        reg.counter_add(
            "pop_precond_applies_total",
            &[("precond", precond)],
            precond_applies as u64,
        );
        if let Some((nu, mu)) = inner.eigen {
            reg.gauge_set("pop_eigen_nu", &[("precond", precond)], nu);
            reg.gauge_set("pop_eigen_mu", &[("precond", precond)], mu);
        }
        for (phase, comm, secs) in &inner.phases {
            let labels = &[("phase", *phase), ("solver", solver)];
            reg.counter_add("pop_comm_allreduces_total", labels, comm.allreduces);
            reg.counter_add(
                "pop_comm_allreduce_scalars_total",
                labels,
                comm.allreduce_scalars,
            );
            reg.counter_add("pop_comm_halo_updates_total", labels, comm.halo_updates);
            reg.counter_add("pop_comm_halo_messages_total", labels, comm.halo_messages);
            reg.counter_add("pop_comm_halo_bytes_total", labels, comm.halo_bytes);
            reg.counter_add_f64("pop_phase_seconds_total", labels, *secs);
        }
        for &(_, rel) in history {
            reg.observe(
                "pop_check_relative_residual",
                &[("solver", solver)],
                &RESIDUAL_BUCKETS,
                rel,
            );
        }

        let trace = ConvergenceTrace {
            solver,
            precond,
            outcome,
            iterations,
            final_rel,
            eigen: inner.eigen,
            samples: history.to_vec(),
            restart_iters: inner.restarts,
            phases: inner
                .phases
                .into_iter()
                .map(|(name, comm, seconds)| PhaseComm {
                    name,
                    seconds,
                    comm,
                })
                .collect(),
        };
        inner
            .core
            .traces
            .lock()
            .expect("trace store poisoned")
            .push(trace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(allreduces: u64, halo_updates: u64) -> StatsSnapshot {
        StatsSnapshot {
            allreduces,
            halo_updates,
            ..Default::default()
        }
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = ObsSink::disabled();
        let mut obs = sink.begin_solve("pcsi", "evp", snap(0, 0));
        assert!(!obs.is_active());
        obs.eigen(0.1, 1.9);
        obs.restart(7);
        // The closure must never run on a disabled sink.
        obs.phase("iterate", || panic!("stats read on disabled sink"));
        obs.finish("converged", 1e-14, 42, 42, 42, &[(10, 1e-5)], || {
            panic!("stats read on disabled sink")
        });
        assert!(sink.metrics().is_empty());
        assert!(sink.traces().is_empty());
    }

    #[test]
    fn phases_partition_the_solve_counts() {
        let sink = ObsSink::enabled();
        let mut obs = sink.begin_solve("pcsi", "evp", snap(1, 2));
        obs.phase("setup", || snap(2, 4)); // +1 allreduce, +2 halos
        obs.phase("iterate", || snap(2, 10)); // +6 halos
        obs.phase("check", || snap(4, 10)); // +2 allreduces
        obs.phase("iterate", || snap(4, 16)); // +6 halos (accumulates)
        obs.eigen(0.05, 1.95);
        obs.restart(30);
        obs.finish(
            "converged",
            3e-14,
            40,
            41,
            40,
            &[(10, 1e-6), (20, 3e-14)],
            || {
                snap(5, 17) // finalize: +1 allreduce, +1 halo
            },
        );

        let traces = sink.traces();
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.solver, "pcsi");
        assert_eq!(t.outcome, "converged");
        assert_eq!(t.eigen, Some((0.05, 1.95)));
        assert_eq!(t.restart_iters, vec![30]);
        assert_eq!(t.samples.len(), 2);
        let names: Vec<_> = t.phases.iter().map(|p| p.name).collect();
        assert_eq!(names, vec!["setup", "iterate", "check", "finalize"]);
        let iterate = &t.phases[1];
        assert_eq!(iterate.comm.halo_updates, 12);
        // Phase deltas sum to the whole solve's counts.
        let total = t.total_comm();
        assert_eq!(total.allreduces, 4);
        assert_eq!(total.halo_updates, 15);

        // Registry side: counters match the trace.
        let metrics = sink.metrics();
        let iterate_halos = metrics
            .iter()
            .find(|m| {
                m.name == "pop_comm_halo_updates_total" && m.labels.contains(&("phase", "iterate"))
            })
            .unwrap();
        assert_eq!(
            iterate_halos.value,
            crate::registry::SampleValue::Counter(12)
        );
    }

    #[test]
    fn noop_recorder_is_inert() {
        let mut obs = SolveObs::noop();
        obs.phase("x", || panic!("must not run"));
        obs.finish("converged", 0.0, 0, 0, 0, &[], || panic!("must not run"));
    }
}
