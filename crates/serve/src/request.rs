//! Request/response/reject types of the solve service.

use pop_comm::DistVec;
use pop_core::setup::PrecondSpec;
use pop_core::solvers::SolveStats;
use pop_stencil::NinePoint;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Which iterative solver to run — `pop-core`'s data-less solver name. It
/// carries no eigenbounds: for P-CSI they come from the cached
/// [`pop_core::setup::OperatorState`], which is the point of the cache.
pub use pop_core::setup::SolverSpec;

/// Tenant SLO class. The dispatcher keeps two priority lanes: the
/// `Interactive` lane dispatches first, while a starvation bound
/// guarantees `Batch` work still progresses — and, symmetrically, that an
/// interactive request never waits behind more than one batch group (see
/// `sched::LaneState`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Latency-sensitive traffic: dispatched ahead of `Batch` work.
    Interactive,
    /// Throughput traffic: yields to `Interactive`, protected from
    /// starvation by the lane rotation bound.
    Batch,
}

impl Priority {
    /// Stable label used on per-class SLO metrics.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
        }
    }
}

/// One tenant's solve request.
///
/// The operator rides behind an `Arc` so many queued requests against the
/// same operator share one allocation; requests whose operators
/// fingerprint equal (and agree on solver, preconditioner, and tolerance
/// bits) coalesce into one batched multi-RHS solve.
pub struct SolveRequest {
    /// Tenant identity for fairness accounting (quota on queued+in-flight
    /// requests per tenant).
    pub tenant: u32,
    pub op: Arc<NinePoint>,
    pub solver: SolverSpec,
    pub precond: PrecondSpec,
    /// Right-hand side `b` of `A x = b`.
    pub b: DistVec,
    /// Warm-start iterate; zeros when absent.
    pub x0: Option<DistVec>,
    /// Convergence tolerance. Part of the coalescing key: lanes of one
    /// batch share a `SolverConfig`.
    pub tol: f64,
    /// Relative deadline from submission. Expired requests are shed at
    /// dispatch time with a structured reject; a request already solving
    /// when its deadline passes is completed, not interrupted. Unset means
    /// no deadline.
    pub deadline: Option<Duration>,
    /// SLO class: which dispatch lane the request rides
    /// ([`Priority::Interactive`] by default).
    pub priority: Priority,
}

impl SolveRequest {
    pub fn new(
        tenant: u32,
        op: Arc<NinePoint>,
        solver: SolverSpec,
        precond: PrecondSpec,
        b: DistVec,
    ) -> SolveRequest {
        SolveRequest {
            tenant,
            op,
            solver,
            precond,
            b,
            x0: None,
            tol: 1e-13,
            deadline: None,
            priority: Priority::Interactive,
        }
    }

    pub fn with_tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }
}

/// A served solve: the solution plus how it was produced.
#[derive(Debug)]
pub struct SolveResponse {
    pub x: DistVec,
    pub stats: SolveStats,
    /// Whether the operator's setup state came from the cache.
    pub cache_hit: bool,
    /// How many requests dispatch coalesced into this one's group. A
    /// group of one or two solves on the single-RHS engine, a wider one
    /// on the batched engine.
    pub batch_width: usize,
    /// Time from submission to dispatch.
    pub queue_wait: Duration,
    /// Time from submission to response.
    pub latency: Duration,
}

/// A structured rejection: *why* the service refused or dropped the
/// request, with the numbers a client needs to back off sensibly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reject {
    /// Admission: the request can never be solved as submitted — its
    /// right-hand side or initial guess lives on a different layout than
    /// its operator, or its tolerance is not a positive number.
    Invalid { reason: &'static str },
    /// Admission: the bounded queue is full.
    QueueFull { depth: usize, capacity: usize },
    /// Admission: this tenant already has `in_flight` requests queued or
    /// solving, at its quota.
    TenantQuota {
        tenant: u32,
        in_flight: usize,
        quota: usize,
    },
    /// Admission: the requested deadline is shorter than the estimated
    /// queue wait (EWMA of recent per-solve service time × queue depth) —
    /// admitting it would only waste a solve.
    DeadlineUnmeetable {
        estimated_wait: Duration,
        deadline: Duration,
    },
    /// Dispatch: the deadline passed while the request sat in the queue.
    DeadlineExpired {
        waited: Duration,
        deadline: Duration,
    },
    /// The service is draining; nothing new is admitted.
    ShuttingDown,
}

impl Reject {
    /// Stable short reason, used as the `reason` label on the shed counter.
    pub fn reason(&self) -> &'static str {
        match self {
            Reject::Invalid { .. } => "invalid",
            Reject::QueueFull { .. } => "queue_full",
            Reject::TenantQuota { .. } => "tenant_quota",
            Reject::DeadlineUnmeetable { .. } => "deadline_unmeetable",
            Reject::DeadlineExpired { .. } => "deadline_expired",
            Reject::ShuttingDown => "shutting_down",
        }
    }
}

impl std::fmt::Display for Reject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Reject::Invalid { reason } => write!(f, "invalid request: {reason}"),
            Reject::QueueFull { depth, capacity } => {
                write!(f, "queue full ({depth}/{capacity})")
            }
            Reject::TenantQuota {
                tenant,
                in_flight,
                quota,
            } => write!(f, "tenant {tenant} at quota ({in_flight}/{quota})"),
            Reject::DeadlineUnmeetable {
                estimated_wait,
                deadline,
            } => write!(
                f,
                "deadline {deadline:?} < estimated queue wait {estimated_wait:?}"
            ),
            Reject::DeadlineExpired { waited, deadline } => {
                write!(f, "deadline {deadline:?} expired after queueing {waited:?}")
            }
            Reject::ShuttingDown => write!(f, "service shutting down"),
        }
    }
}

/// The caller's handle to an admitted request. [`Ticket::wait`] blocks for
/// the outcome; admitted requests can still come back rejected
/// ([`Reject::DeadlineExpired`] at dispatch, [`Reject::ShuttingDown`] on
/// drain).
pub struct Ticket {
    pub(crate) rx: mpsc::Receiver<Result<SolveResponse, Reject>>,
}

impl Ticket {
    /// Block until the request is served, shed, or the service drops.
    pub fn wait(self) -> Result<SolveResponse, Reject> {
        self.rx.recv().unwrap_or(Err(Reject::ShuttingDown))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reject_reasons_are_stable_and_unique() {
        let all = [
            Reject::Invalid {
                reason: "tolerance must be positive",
            },
            Reject::QueueFull {
                depth: 4,
                capacity: 4,
            },
            Reject::TenantQuota {
                tenant: 7,
                in_flight: 2,
                quota: 2,
            },
            Reject::DeadlineUnmeetable {
                estimated_wait: Duration::from_millis(50),
                deadline: Duration::from_millis(10),
            },
            Reject::DeadlineExpired {
                waited: Duration::from_millis(20),
                deadline: Duration::from_millis(10),
            },
            Reject::ShuttingDown,
        ];
        let mut reasons: Vec<&str> = all.iter().map(|r| r.reason()).collect();
        reasons.sort_unstable();
        reasons.dedup();
        assert_eq!(reasons.len(), all.len());
        for r in &all {
            assert!(!format!("{r}").is_empty());
        }
    }

    #[test]
    fn priority_labels_are_stable_and_default_is_interactive() {
        assert_eq!(Priority::Interactive.label(), "interactive");
        assert_eq!(Priority::Batch.label(), "batch");
        let grid = pop_grid::Grid::gx1_scaled(1, 16, 12);
        let layout = pop_comm::DistLayout::build(&grid, 4, 4);
        let world = pop_comm::CommWorld::serial();
        let op = NinePoint::assemble(&grid, &layout, &world, 1000.0);
        let b = DistVec::zeros(&layout);
        let req = SolveRequest::new(
            0,
            Arc::new(op),
            SolverSpec::ChronGear,
            PrecondSpec::Diagonal,
            b,
        );
        assert_eq!(req.priority, Priority::Interactive);
        assert_eq!(req.with_priority(Priority::Batch).priority, Priority::Batch);
    }
}
