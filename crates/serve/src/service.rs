//! The solve service: admission → queue → dispatch → batch → solve → stream.
//!
//! A pool of scheduler workers shares one dispatch queue. Callers submit
//! from any thread; admission control happens synchronously under the
//! queue lock (bounded depth, per-tenant quota, deadline feasibility
//! against an EWMA of recent service time scaled by the pool's effective
//! dispatch parallelism), and admitted requests come back through a
//! per-request channel ([`Ticket`]).
//!
//! **Dispatch.** Each worker pulls *one coalesced batch group* at a time:
//! under the queue lock it sheds requests whose deadlines expired while
//! queued, orders survivors per priority lane round-robin by tenant
//! (`sched::fair_order`), picks the lane (`sched::LaneState` — Interactive
//! first, batch promoted within a starvation bound), and takes the lane's
//! first request in that order together with the requests after it that
//! share its (operator fingerprint, layout identity, solver,
//! preconditioner, tolerance bits) key, `max_batch` at most. The key is
//! computed once per request at admission, before the lock, from a
//! per-operator fingerprint memo (`KeyMemo`), so dispatch compares stored
//! keys and never hashes. The lock is released before the solve, so
//! independent groups solve concurrently across workers. A group of one or
//! two requests solves member by member on the single-RHS engine, a wider
//! one on the batched engine. Results are
//! bit-identical to standalone solves of the same requests regardless of
//! batching, engine, cache state, worker count, or arrival order — the
//! batched engine pins each request to a lane, the cached setup state is
//! deterministic (and single-flighted, so concurrent misses share one
//! build), and each worker solves in its own workspaces.

use crate::cache::{CacheStats, SharedOperatorCache};
use crate::request::{Priority, Reject, SolveRequest, SolveResponse, SolverSpec, Ticket};
use crate::sched::{self, LaneState, QueueItem};
use pop_comm::{CommWorld, DistVec};
use pop_core::fingerprint::operator_fingerprint;
use pop_core::lanczos::LanczosConfig;
use pop_core::solvers::{BatchWorkspace, SolveStats, SolverConfig, SolverWorkspace, MAX_BATCH};
use pop_obs::ObsSink;
use pop_simd::LANES;
use pop_stencil::NinePoint;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Latency histogram bounds (seconds) for the serve SLO metrics. Spaced
/// ~3× apart from 100 µs to 30 s: smoke-grid solves land in the middle
/// decades, and the SLO quantile estimator interpolates within a bucket.
pub static LATENCY_BUCKETS: [f64; 12] = [
    1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0,
];

/// Batch-width histogram bounds (requests per dispatched group).
pub static WIDTH_BUCKETS: [f64; 5] = [1.0, 2.0, 4.0, 8.0, 16.0];

/// Widest coalesced group that solves on the single-RHS engine, one member
/// after another: half a lane group. Up to it, the batched engine's four
/// lanes cost more than the solves they carry (a lone request pays for all
/// four, and its EVP tiles are solved one at a time instead of four to a
/// pack across blocks); past it, they cost less. Measured on the 96×80
/// serve operator: one request 9.5 ms batched against 4.3 ms single, two
/// requests 15 ms against 8.6 ms, three 15.1 ms against ≈ 16 ms.
const SINGLE_RHS_MAX_WIDTH: usize = LANES / 2;

/// Cap on auto-sized worker pools: dispatch rounds are short and the
/// solves are memory-bandwidth-hungry, so past a handful of workers the
/// marginal thread only adds queue-lock contention.
pub const MAX_WORKERS: usize = 8;

/// Service tuning knobs. `Default` is sized for tests and smoke loads.
#[derive(Clone)]
pub struct ServiceConfig {
    /// Bounded admission queue depth; submissions beyond it get
    /// [`Reject::QueueFull`].
    pub queue_capacity: usize,
    /// Max queued + in-flight requests per tenant ([`Reject::TenantQuota`]).
    pub tenant_quota: usize,
    /// Widest multi-RHS batch to coalesce (clamped to `1..=MAX_BATCH`).
    pub max_batch: usize,
    /// Scheduler worker threads pulling batch groups from the dispatch
    /// queue. `0` (the default) auto-sizes: `POP_SERVE_WORKERS` if set,
    /// else the host's available parallelism, clamped to
    /// `1..=`[`MAX_WORKERS`].
    pub workers: usize,
    /// Operator-state LRU entries; 0 disables caching.
    pub cache_capacity: usize,
    /// Lanczos configuration for P-CSI setup state. Service-wide so equal
    /// operators always produce equal (cacheable) bounds.
    pub lanczos: LanczosConfig,
    /// Base solver configuration; `tol` is overridden per request and the
    /// service's [`ObsSink`] is attached.
    pub base: SolverConfig,
    /// Metrics sink; [`ObsSink::disabled`] costs nothing.
    pub obs: ObsSink,
    /// Start with the dispatch paused: submissions are admitted and
    /// queued but nothing dispatches until [`SolverService::resume`].
    /// Lets tests and the load generator stage a deterministic burst.
    pub start_paused: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 64,
            tenant_quota: 32,
            max_batch: MAX_BATCH,
            workers: 0,
            cache_capacity: 8,
            lanczos: LanczosConfig::SETUP,
            base: SolverConfig::default(),
            obs: ObsSink::disabled(),
            start_paused: false,
        }
    }
}

impl ServiceConfig {
    /// The worker count this config resolves to (see
    /// [`ServiceConfig::workers`]).
    pub fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers.clamp(1, MAX_WORKERS);
        }
        if let Ok(v) = std::env::var("POP_SERVE_WORKERS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                return n.clamp(1, MAX_WORKERS);
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(1, MAX_WORKERS)
    }
}

struct Pending {
    req: SolveRequest,
    /// The request's coalescing key, computed at admission.
    key: ServeKey,
    submitted: Instant,
    tx: mpsc::Sender<Result<SolveResponse, Reject>>,
}

struct QueueState {
    queue: VecDeque<Pending>,
    /// Queued + in-flight requests per tenant. Entries are removed when
    /// they reach zero ([`release_tenant`]) so the map stays bounded by
    /// *live* tenants, not every tenant ever seen.
    tenant_load: HashMap<u32, usize>,
    lanes: LaneState,
    paused: bool,
    shutdown: bool,
}

/// Decrement a tenant's queued+in-flight count, dropping the entry at
/// zero so a long-lived service doesn't accumulate one map slot per
/// tenant it has ever served.
fn release_tenant(tenant_load: &mut HashMap<u32, usize>, tenant: u32) {
    if let Some(load) = tenant_load.get_mut(&tenant) {
        *load = load.saturating_sub(1);
        if *load == 0 {
            tenant_load.remove(&tenant);
        }
    }
}

/// Lock-free EWMA update (α = 0.2, first sample seeds the average).
/// Workers race here, so this must be a CAS loop: a load/store pair would
/// silently drop whichever concurrent writer lost the race.
fn ewma_update(cell: &AtomicU64, sample: f64) {
    let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
        let old = f64::from_bits(bits);
        let new = if old == 0.0 {
            sample
        } else {
            0.8 * old + 0.2 * sample
        };
        Some(new.to_bits())
    });
}

struct Shared {
    cfg: ServiceConfig,
    /// Resolved worker-pool size (≥ 1); admission scales its queue-wait
    /// estimate by this.
    workers: usize,
    state: Mutex<QueueState>,
    cv: Condvar,
    /// Operator-state cache, shared across workers with single-flight
    /// builds.
    cache: SharedOperatorCache,
    /// Each live operator's fingerprint.
    keys: KeyMemo,
    /// EWMA of per-request service time, f64 seconds as bits. Admission
    /// uses it to judge deadline feasibility before any queueing happens.
    ema_service_secs: AtomicU64,
    /// EWMA of dispatched batch width (requests per coalesced group,
    /// whichever engine solves it), f64 as bits.
    /// Together with the worker count it gives the effective dispatch
    /// parallelism the admission estimate divides by.
    ema_batch_width: AtomicU64,
}

impl Shared {
    fn ema(&self) -> f64 {
        f64::from_bits(self.ema_service_secs.load(Ordering::Relaxed))
    }

    fn width_ema(&self) -> f64 {
        f64::from_bits(self.ema_batch_width.load(Ordering::Relaxed))
    }

    /// Requests retired per service-time unit once the pool and
    /// coalescing are accounted for: workers × recent mean batch width,
    /// floored at 1 so a cold estimator never inflates feasibility.
    fn effective_parallelism(&self) -> f64 {
        (self.workers as f64 * self.width_ema().max(1.0)).max(1.0)
    }

    /// Refresh the queue-depth gauge from the authoritative queue length.
    /// Must be called with the queue lock held — that is the whole fix:
    /// gauge writes outside the lock raced each other and could leave a
    /// permanently stale nonzero depth after the queue drained.
    fn gauge_depth(&self, st: &QueueState) {
        if let Some(reg) = self.cfg.obs.registry() {
            reg.gauge_set("pop_serve_queue_depth", &[], st.queue.len() as f64);
        }
    }

    fn count_shed(&self, reason: &'static str) {
        if let Some(reg) = self.cfg.obs.registry() {
            reg.counter_add("pop_serve_shed_total", &[("reason", reason)], 1);
            reg.counter_add("pop_serve_requests_total", &[("outcome", "shed")], 1);
        }
    }

    fn record_cache(&self, hit: bool, setup_secs: f64) {
        if let Some(reg) = self.cfg.obs.registry() {
            if hit {
                reg.counter_add("pop_serve_cache_hits_total", &[], 1);
            } else {
                reg.counter_add("pop_serve_cache_misses_total", &[], 1);
                reg.counter_add_f64("pop_serve_setup_seconds_total", &[], setup_secs);
            }
        }
    }

    fn record_served(
        &self,
        spec: SolverSpec,
        priority: Priority,
        st: &SolveStats,
        queue_wait: Duration,
        latency: Duration,
        width: usize,
    ) {
        if let Some(reg) = self.cfg.obs.registry() {
            let outcome = if st.converged {
                "served"
            } else {
                "served_unconverged"
            };
            reg.counter_add("pop_serve_requests_total", &[("outcome", outcome)], 1);
            reg.observe(
                "pop_serve_latency_seconds",
                &[("solver", spec.label()), ("class", priority.label())],
                &LATENCY_BUCKETS,
                latency.as_secs_f64(),
            );
            reg.observe(
                "pop_serve_queue_wait_seconds",
                &[("class", priority.label())],
                &LATENCY_BUCKETS,
                queue_wait.as_secs_f64(),
            );
            reg.observe("pop_serve_batch_width", &[], &WIDTH_BUCKETS, width as f64);
        }
    }
}

/// The running service. Dropping it (or calling [`SolverService::shutdown`])
/// drains the queue with [`Reject::ShuttingDown`] and joins the workers.
pub struct SolverService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl SolverService {
    pub fn start(cfg: ServiceConfig) -> SolverService {
        let paused = cfg.start_paused;
        let n_workers = cfg.resolved_workers();
        let cache = SharedOperatorCache::new(cfg.cache_capacity);
        let shared = Arc::new(Shared {
            cfg,
            workers: n_workers,
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                tenant_load: HashMap::new(),
                lanes: LaneState::new(),
                paused,
                shutdown: false,
            }),
            cv: Condvar::new(),
            cache,
            keys: KeyMemo::default(),
            ema_service_secs: AtomicU64::new(0),
            ema_batch_width: AtomicU64::new(0),
        });
        let workers = (0..n_workers)
            .map(|i| {
                let worker_shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pop-serve-worker-{i}"))
                    .spawn(move || Worker::new(worker_shared).run())
                    .expect("spawn dispatch worker thread")
            })
            .collect();
        SolverService { shared, workers }
    }

    /// Admission-controlled submit. Admission is synchronous: a returned
    /// [`Ticket`] means the request is queued (it can still be shed at
    /// dispatch if its deadline expires while waiting). Malformed requests
    /// (foreign layout, non-positive tolerance, non-finite `b` or `x0`) get
    /// [`Reject::Invalid`].
    pub fn submit(&self, req: SolveRequest) -> Result<Ticket, Reject> {
        let shared = &self.shared;
        if let Some(reason) = invalid_reason(&req) {
            return Err(self.shed_at_admission(Reject::Invalid { reason }));
        }
        // Outside the queue lock: a first sight of an operator hashes it.
        let key = serve_key(&req, shared.keys.key(&req.op));
        let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.shutdown {
            return Err(self.shed_at_admission(Reject::ShuttingDown));
        }
        if st.queue.len() >= shared.cfg.queue_capacity {
            return Err(self.shed_at_admission(Reject::QueueFull {
                depth: st.queue.len(),
                capacity: shared.cfg.queue_capacity,
            }));
        }
        let load = st.tenant_load.get(&req.tenant).copied().unwrap_or(0);
        if load >= shared.cfg.tenant_quota {
            return Err(self.shed_at_admission(Reject::TenantQuota {
                tenant: req.tenant,
                in_flight: load,
                quota: shared.cfg.tenant_quota,
            }));
        }
        if let Some(deadline) = req.deadline {
            let ema = shared.ema();
            if ema > 0.0 {
                // Wait estimate for the request at the back of the queue:
                // total outstanding work divided by the pool's effective
                // dispatch parallelism (workers × mean batch width). A
                // single serial scheduler would serve the queue one
                // request at a time; this pool does not.
                let estimated_wait = Duration::from_secs_f64(
                    ema * (st.queue.len() + 1) as f64 / shared.effective_parallelism(),
                );
                if deadline < estimated_wait {
                    return Err(self.shed_at_admission(Reject::DeadlineUnmeetable {
                        estimated_wait,
                        deadline,
                    }));
                }
            }
        }
        let (tx, rx) = mpsc::channel();
        *st.tenant_load.entry(req.tenant).or_insert(0) += 1;
        st.queue.push_back(Pending {
            req,
            key,
            submitted: Instant::now(),
            tx,
        });
        shared.gauge_depth(&st);
        drop(st);
        shared.cv.notify_all();
        Ok(Ticket { rx })
    }

    /// Release a paused dispatch ([`ServiceConfig::start_paused`]).
    pub fn resume(&self) {
        let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        st.paused = false;
        drop(st);
        self.shared.cv.notify_all();
    }

    pub fn obs(&self) -> &ObsSink {
        &self.shared.cfg.obs
    }

    /// Resolved size of the dispatch worker pool.
    pub fn worker_count(&self) -> usize {
        self.shared.workers
    }

    /// Current EWMA of per-request service time (seconds); 0 before the
    /// first completion.
    pub fn ema_service_secs(&self) -> f64 {
        self.shared.ema()
    }

    /// Number of tenants with queued or in-flight work right now.
    /// Accounting introspection: drops back to 0 when the service idles
    /// (entries are removed at zero, not leaked).
    pub fn tenant_load_len(&self) -> usize {
        self.shared
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .tenant_load
            .len()
    }

    /// Warm-start the admission estimator with known history (e.g. when
    /// restarting a service over the same operator population): seeds the
    /// per-request service-time EWMA and the mean-batch-width EWMA as if
    /// one sample of each had been observed.
    pub fn prime_service_estimate(&self, per_solve_secs: f64, mean_batch_width: f64) {
        self.shared
            .ema_service_secs
            .store(per_solve_secs.max(0.0).to_bits(), Ordering::Relaxed);
        self.shared
            .ema_batch_width
            .store(mean_batch_width.max(1.0).to_bits(), Ordering::Relaxed);
    }

    /// Drain and stop. Queued-but-undispatched requests receive
    /// [`Reject::ShuttingDown`]. Returns cache statistics for reporting.
    pub fn shutdown(mut self) -> CacheStats {
        self.shutdown_inner();
        self.shared.cache.stats()
    }

    /// Drain and stop, returning how many tenant-load entries survived
    /// the drain. Zero unless accounting leaks — the shutdown path
    /// releases queued tenants through the same remove-at-zero helper as
    /// the served path.
    pub fn tenant_load_len_after_shutdown(mut self) -> usize {
        self.shutdown_inner();
        self.shared
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .tenant_load
            .len()
    }

    fn shutdown_inner(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            st.shutdown = true;
            st.paused = false;
        }
        self.shared.cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    fn shed_at_admission(&self, r: Reject) -> Reject {
        self.shared.count_shed(r.reason());
        r
    }
}

impl Drop for SolverService {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Why a request can never be solved as submitted, if so. Checked at
/// admission: inside a worker a foreign layout trips the batched engine's
/// geometry assert (killing the worker and stranding its tenants' quota),
/// a tolerance no residual can get below burns `max_iters` iterations, and
/// a non-finite input burns the whole restart ladder on its way to
/// `Diverged`.
fn invalid_reason(req: &SolveRequest) -> Option<&'static str> {
    let layout = &req.op.layout;
    let finite = |v: &DistVec| {
        v.blocks
            .iter()
            .all(|b| b.raw().iter().all(|x| x.is_finite()))
    };
    if !Arc::ptr_eq(&req.b.layout, layout) {
        Some("right-hand side is not on the operator's layout")
    } else if req
        .x0
        .as_ref()
        .is_some_and(|x0| !Arc::ptr_eq(&x0.layout, layout))
    {
        Some("initial guess is not on the operator's layout")
    } else if req.tol.is_nan() || req.tol <= 0.0 {
        Some("tolerance must be a positive number")
    } else if !finite(&req.b) {
        Some("right-hand side holds a non-finite value")
    } else if req.x0.as_ref().is_some_and(|x0| !finite(x0)) {
        Some("initial guess holds a non-finite value")
    } else {
        None
    }
}

/// Coalescing identity: requests may share a batch iff *all* of this
/// matches — layout identity, operator bits, solver, preconditioner spec,
/// and tolerance bits (lanes share one `SolverConfig`). Equal layouts and
/// operators give equal sweep structure, so the lanes can ride one fused
/// pass. Priority is not part of the key because each dispatch group is
/// drawn from a single lane.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ServeKey {
    /// The layout's allocation.
    layout: usize,
    /// The operator's [`operator_fingerprint`].
    fingerprint: u64,
    solver: SolverSpec,
    precond: pop_core::setup::PrecondSpec,
    tol_bits: u64,
}

fn serve_key(req: &SolveRequest, fingerprint: u64) -> ServeKey {
    ServeKey {
        layout: Arc::as_ptr(&req.op.layout) as usize,
        fingerprint,
        solver: req.solver,
        precond: req.precond,
        tol_bits: req.tol.to_bits(),
    }
}

/// Operator fingerprints memoised per operator allocation.
/// [`operator_fingerprint`] hashes every coefficient (≈ 0.4 ms on the
/// 96×80 serve operator, ≈ 7.5 ms on gx1), so it is computed once per
/// operator, not once per request or per dispatch.
///
/// An entry holds a [`Weak`]: while it lives, `Arc::get_mut` refuses the
/// operator and `Arc::make_mut` moves it to a fresh allocation, so a
/// memoised allocation is never changed in place. A hit must still upgrade
/// and point at the same allocation. Dead entries are pruned on insert, so
/// the memo holds about as many entries as there are live operators.
#[derive(Default)]
struct KeyMemo {
    entries: Mutex<Vec<(Weak<NinePoint>, u64)>>,
    /// Fingerprints computed: memo misses.
    computed: AtomicU64,
}

impl KeyMemo {
    /// `op`'s fingerprint, hashed only on the first sight of its
    /// allocation.
    fn key(&self, op: &Arc<NinePoint>) -> u64 {
        if let Some(key) = self.lookup(op) {
            return key;
        }
        // Hashed outside the memo lock: submitters of other operators go on.
        let key = operator_fingerprint(op);
        self.computed.fetch_add(1, Ordering::Relaxed);
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries.retain(|(w, _)| w.strong_count() > 0);
        if !entries
            .iter()
            .any(|(w, _)| std::ptr::eq(w.as_ptr(), Arc::as_ptr(op)))
        {
            entries.push((Arc::downgrade(op), key));
        }
        key
    }

    fn lookup(&self, op: &Arc<NinePoint>) -> Option<u64> {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries.iter().find_map(|(w, key)| {
            let same = w.upgrade().is_some_and(|live| Arc::ptr_eq(&live, op));
            same.then_some(*key)
        })
    }
}

/// One dispatch worker: pulls a batch group under the queue lock, solves
/// it in its own context, responds, repeats. The dispatcher logic
/// (shedding, lane pick, fair order, group pick) lives in
/// [`Worker::take_next_group`] and runs entirely under the lock; the
/// solve never does.
struct Worker {
    shared: Arc<Shared>,
    /// Widest group to take: [`ServiceConfig::max_batch`] clamped to
    /// `1..=MAX_BATCH`.
    max_batch: usize,
    /// Serial sweeps for cache builds and solves alike: the worker pool
    /// itself is the service's parallelism.
    world: CommWorld,
    /// The single-RHS engine's vectors, for groups of at most
    /// [`SINGLE_RHS_MAX_WIDTH`].
    ws: SolverWorkspace,
    /// The batched engine's vectors, for wider groups.
    bws: BatchWorkspace<CommWorld>,
}

impl Worker {
    fn new(shared: Arc<Shared>) -> Worker {
        let max_batch = shared.cfg.max_batch.clamp(1, MAX_BATCH);
        Worker {
            shared,
            max_batch,
            world: CommWorld::serial(),
            ws: SolverWorkspace::new(),
            bws: BatchWorkspace::new(),
        }
    }

    fn run(mut self) {
        loop {
            let group = {
                let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if st.shutdown {
                        self.drain(&mut st);
                        return;
                    }
                    if !st.paused {
                        if let Some(group) = self.take_next_group(&mut st) {
                            break group;
                        }
                    }
                    st = self.shared.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                }
            };
            self.run_batch(group);
        }
    }

    /// Shutdown drain: everything still queued is rejected. Idempotent —
    /// whichever worker observes the flag first empties the queue, the
    /// rest find it empty.
    fn drain(&self, st: &mut QueueState) {
        let rest: Vec<Pending> = st.queue.drain(..).collect();
        for p in &rest {
            release_tenant(&mut st.tenant_load, p.req.tenant);
        }
        self.shared.gauge_depth(st);
        for p in rest {
            let _ = p.tx.send(Err(Reject::ShuttingDown));
            self.shared.count_shed(Reject::ShuttingDown.reason());
        }
    }

    /// The dispatcher: shed expired deadlines, pick a lane, order it
    /// fairly, and take its first group off the queue.
    /// Runs under the queue lock (`st` is the locked state); returns
    /// `None` when the queue has nothing dispatchable.
    fn take_next_group(&self, st: &mut QueueState) -> Option<Vec<Pending>> {
        // Shed in place so tenant accounting and the depth gauge update
        // under the same lock as the queue they describe.
        let now = Instant::now();
        let mut shed: Vec<Pending> = Vec::new();
        let mut i = 0;
        while i < st.queue.len() {
            let expired = match st.queue[i].req.deadline {
                Some(d) => now.duration_since(st.queue[i].submitted) > d,
                None => false,
            };
            if expired {
                let p = st.queue.remove(i).expect("index in bounds");
                release_tenant(&mut st.tenant_load, p.req.tenant);
                shed.push(p);
            } else {
                i += 1;
            }
        }

        let items: Vec<QueueItem> = st
            .queue
            .iter()
            .map(|p| QueueItem {
                tenant: p.req.tenant,
                priority: p.req.priority,
            })
            .collect();
        let interactive = sched::fair_order(&items, Priority::Interactive);
        let batch = sched::fair_order(&items, Priority::Batch);
        let lane = st.lanes.pick(!interactive.is_empty(), !batch.is_empty());
        let group = lane.map(|lane| {
            let order = match lane {
                Priority::Interactive => interactive,
                Priority::Batch => batch,
            };
            // The lane's first request, then those after it that share
            // its key: fair order throughout.
            let lead = st.queue[order[0]].key;
            let members: Vec<usize> = order
                .into_iter()
                .filter(|&qi| st.queue[qi].key == lead)
                .take(self.max_batch)
                .collect();
            // Highest queue position first, so the lower ones stay valid.
            let mut group: Vec<Option<Pending>> = members.iter().map(|_| None).collect();
            for qi in (0..st.queue.len()).rev() {
                if let Some(m) = members.iter().position(|&x| x == qi) {
                    group[m] = st.queue.remove(qi);
                }
            }
            group
                .into_iter()
                .map(|p| p.expect("member queued"))
                .collect()
        });
        self.shared.gauge_depth(st);
        for p in shed {
            self.shared.count_shed("deadline_expired");
            let waited = now.duration_since(p.submitted);
            let deadline = p.req.deadline.expect("only deadlined requests expire");
            let _ = p.tx.send(Err(Reject::DeadlineExpired { waited, deadline }));
        }
        group
    }

    /// Solve one coalesced group and answer its tickets. A group of at
    /// most [`SINGLE_RHS_MAX_WIDTH`] requests solves its members one after
    /// another on the single-RHS engine; a wider one rides the batched
    /// engine, a lane per request. Both give every request the bits of its
    /// standalone solve; only the time differs.
    fn run_batch(&mut self, group: Vec<Pending>) {
        let k = group.len();
        let spec = group[0].req.solver;
        let precond = group[0].req.precond;
        let priority = group[0].req.priority;
        let op = Arc::clone(&group[0].req.op);
        let fingerprint = group[0].key.fingerprint;

        let setup_start = Instant::now();
        let (state, cache_hit) = self.shared.cache.get_or_build(
            fingerprint,
            &op,
            precond,
            spec.needs_bounds(),
            &self.shared.cfg.lanczos,
            &self.world,
        );
        let setup_secs = setup_start.elapsed().as_secs_f64();
        self.shared.record_cache(cache_hit, setup_secs);

        let mut cfg = self.shared.cfg.base.clone();
        cfg.tol = group[0].req.tol;
        cfg.obs = self.shared.cfg.obs.clone();

        let solve_start = Instant::now();
        let mut xs: Vec<DistVec> = group
            .iter()
            .map(|p| {
                p.req
                    .x0
                    .clone()
                    .unwrap_or_else(|| DistVec::zeros(&op.layout))
            })
            .collect();
        let solver = state.solver(spec);
        let pre = state.precond.as_ref();
        let stats: Vec<SolveStats> = if k <= SINGLE_RHS_MAX_WIDTH {
            group
                .iter()
                .zip(&mut xs)
                .map(|(p, x)| solver.solve(&op, pre, &self.world, &p.req.b, x, &cfg, &mut self.ws))
                .collect()
        } else {
            let bs: Vec<&DistVec> = group.iter().map(|p| &p.req.b).collect();
            let mut xrefs: Vec<&mut DistVec> = xs.iter_mut().collect();
            solver.solve_batch(&op, pre, &self.world, &bs, &mut xrefs, &cfg, &mut self.bws)
        };
        let solve_secs = solve_start.elapsed().as_secs_f64();
        ewma_update(&self.shared.ema_service_secs, solve_secs / k as f64);
        ewma_update(&self.shared.ema_batch_width, k as f64);

        let done = Instant::now();
        for ((p, x), st) in group.into_iter().zip(xs).zip(stats) {
            let queue_wait = solve_start.saturating_duration_since(p.submitted);
            let latency = done.saturating_duration_since(p.submitted);
            self.finish_tenant(p.req.tenant);
            self.shared
                .record_served(spec, priority, &st, queue_wait, latency, k);
            let _ = p.tx.send(Ok(SolveResponse {
                x,
                stats: st,
                cache_hit,
                batch_width: k,
                queue_wait,
                latency,
            }));
        }
    }

    fn finish_tenant(&self, tenant: u32) {
        let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        release_tenant(&mut st.tenant_load, tenant);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_comm::DistLayout;
    use pop_core::setup::PrecondSpec;
    use pop_grid::Grid;

    fn operator(seed: u64) -> Arc<NinePoint> {
        let grid = Grid::gx1_scaled(seed, 32, 24);
        let layout = DistLayout::build(&grid, 8, 6);
        Arc::new(NinePoint::assemble(
            &grid,
            &layout,
            &CommWorld::serial(),
            3000.0,
        ))
    }

    /// Dispatch compares stored keys: a burst of 64 requests on one
    /// operator hashes it once, at the first admission.
    #[test]
    fn one_operator_is_fingerprinted_once() {
        let op = operator(7);
        let mut b = DistVec::zeros(&op.layout);
        b.fill_with(|i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
        let svc = SolverService::start(ServiceConfig {
            start_paused: true,
            ..ServiceConfig::default()
        });
        let tickets: Vec<_> = (0..64)
            .map(|i| {
                let req = SolveRequest::new(
                    i % 4,
                    Arc::clone(&op),
                    SolverSpec::ChronGear,
                    PrecondSpec::Diagonal,
                    b.clone(),
                );
                svc.submit(req.with_tol(1e-8)).unwrap()
            })
            .collect();
        svc.resume();
        for t in tickets {
            assert!(t.wait().unwrap().stats.converged);
        }
        assert_eq!(svc.shared.keys.computed.load(Ordering::Relaxed), 1);
    }

    /// The memo never outgrows the live operators: each insert prunes the
    /// entries whose operators were dropped.
    #[test]
    fn key_memo_holds_only_live_operators() {
        let memo = KeyMemo::default();
        let live = operator(8);
        let key = memo.key(&live);
        for _ in 0..100 {
            let dropped = Arc::new((*live).clone());
            assert_eq!(memo.key(&dropped), key, "bit-equal operators share a key");
        }
        let newest = operator(9);
        assert_ne!(memo.key(&newest), key);
        {
            let entries = memo.entries.lock().unwrap();
            assert_eq!(entries.len(), 2);
            assert!(entries.iter().all(|(w, _)| w.strong_count() > 0));
        }
        assert_eq!(memo.key(&live), key);
        assert_eq!(memo.computed.load(Ordering::Relaxed), 102);
    }

    /// The queue positions of the first `picks` groups a fresh service
    /// with `max_batch = cap` takes from a queue of `(tenant, priority,
    /// tolerance)` requests; the tolerance splits the requests into keys.
    fn first_groups(queue: &[(u32, Priority, f64)], cap: usize, picks: usize) -> Vec<Vec<u64>> {
        let op = operator(7);
        let svc = SolverService::start(ServiceConfig {
            workers: 1,
            max_batch: cap,
            start_paused: true,
            ..ServiceConfig::default()
        });
        // Each request's deadline, far off, tags its queue position.
        let tag = |at: u64| Duration::from_secs(3600 + at);
        let _tickets: Vec<_> = queue
            .iter()
            .zip(0..)
            .map(|(&(tenant, priority, tol), at)| {
                let b = DistVec::zeros(&op.layout);
                let req = SolveRequest::new(
                    tenant,
                    Arc::clone(&op),
                    SolverSpec::ChronGear,
                    PrecondSpec::Diagonal,
                    b,
                );
                let req = req.with_tol(tol).with_priority(priority);
                svc.submit(req.with_deadline(tag(at))).unwrap()
            })
            .collect();
        // The service stays paused: this worker is the only dispatcher.
        let worker = Worker::new(Arc::clone(&svc.shared));
        let mut st = svc.shared.state.lock().unwrap();
        (0..picks)
            .map(|_| {
                let group = worker.take_next_group(&mut st).expect("a group");
                let at = |p: &Pending| p.req.deadline.unwrap().as_secs() - 3600;
                group.iter().map(at).collect()
            })
            .collect()
    }

    /// A group is the lane's first request in fair order and the requests
    /// after it in that order that share its key, `max_batch` at most:
    /// at every pick, the members and member order of the first group a
    /// plan of the whole fair-ordered lane (every key's requests, chunked
    /// to the cap) would give.
    #[test]
    fn group_pick_takes_the_lead_key_in_fair_order_up_to_the_cap() {
        use Priority::{Batch, Interactive};
        let (a, b) = (1e-8, 1e-9);
        // One tenant, one lane: keys a b a a b a a a, cap 4.
        let one: Vec<_> = [a, b, a, a, b, a, a, a]
            .into_iter()
            .map(|tol| (0, Interactive, tol))
            .collect();
        let picks = [vec![0, 2, 3, 5], vec![1, 4], vec![6, 7]];
        assert_eq!(first_groups(&one, 4, 3), picks);
        // Three tenants, both lanes, cap 3. The interactive lane's fair
        // order is 0 1 5 2 4 8 6 9, keyed a b a a a a b a; the batch
        // request 3 shares key a and a tenant with 5 but not the lane.
        let mixed = [
            (1, Interactive, a),
            (2, Interactive, b),
            (1, Interactive, a),
            (3, Batch, a),
            (2, Interactive, a),
            (3, Interactive, a),
            (1, Interactive, b),
            (2, Batch, b),
            (3, Interactive, a),
            (1, Interactive, a),
        ];
        assert_eq!(first_groups(&mixed, 3, 2), [vec![0, 5, 2], vec![1, 6]]);
    }

    #[test]
    fn release_tenant_removes_entries_at_zero() {
        let mut load = HashMap::new();
        load.insert(7u32, 2usize);
        load.insert(9u32, 1usize);
        release_tenant(&mut load, 7);
        assert_eq!(load.get(&7), Some(&1));
        release_tenant(&mut load, 7);
        assert!(!load.contains_key(&7), "entry must be removed at zero");
        release_tenant(&mut load, 9);
        assert!(load.is_empty());
        // Releasing an absent tenant is a no-op, never an underflow or a
        // resurrected entry.
        release_tenant(&mut load, 42);
        assert!(load.is_empty());
    }

    #[test]
    fn ewma_first_sample_seeds_then_blends_exactly() {
        let cell = AtomicU64::new(0);
        ewma_update(&cell, 2.0);
        assert_eq!(f64::from_bits(cell.load(Ordering::Relaxed)), 2.0);
        ewma_update(&cell, 4.0);
        let expect = 0.8 * 2.0 + 0.2 * 4.0;
        assert_eq!(f64::from_bits(cell.load(Ordering::Relaxed)), expect);
    }

    #[test]
    fn ewma_cas_lands_in_the_convex_hull_under_contention() {
        // Many threads hammer samples drawn from [1.0, 2.0]. Every CAS
        // application of x -> 0.8x + 0.2s with s in [lo, hi] maps the
        // hull into itself once seeded, so the final value must be inside
        // it — and the fetch_update loop guarantees every sample is
        // applied to a current value, not a stale one.
        let cell = AtomicU64::new(0);
        let threads = 8;
        let per_thread = 500;
        std::thread::scope(|s| {
            for t in 0..threads {
                let cell = &cell;
                s.spawn(move || {
                    for i in 0..per_thread {
                        // Deterministic samples in [1, 2].
                        let u = ((t * per_thread + i) as f64 * 0.377).fract();
                        ewma_update(cell, 1.0 + u);
                    }
                });
            }
        });
        let v = f64::from_bits(cell.load(Ordering::Relaxed));
        assert!(
            (1.0..=2.0).contains(&v),
            "EWMA {v} escaped the sample hull [1, 2]"
        );
    }
}
