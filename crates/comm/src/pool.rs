//! A minimal persistent worker pool for block-parallel sweeps.
//!
//! The solver hot loop dispatches the same shape of job thousands of times:
//! "run `f(b)` for every block index `b`". This pool is specialized to
//! exactly that — an index-claiming loop over `0..n` — and keeps its worker
//! threads parked between jobs, so a steady-state solver iteration costs two
//! condvar signals and **zero heap allocations** (no closure boxing, no
//! per-job channels).
//!
//! Design notes:
//!
//! - Workers park on a condvar and are woken by an epoch bump. The job is
//!   published as a raw pointer to the caller's closure; the caller blocks in
//!   [`ThreadPool::run_indexed`] until every worker has checked back in, so
//!   the pointed-to closure outlives all uses.
//! - Indices are claimed from a shared atomic cursor (dynamic scheduling).
//!   The *submitting* thread participates too, so a pool of size 1 spawns no
//!   threads at all and runs inline.
//! - A submitter-side mutex serializes jobs: many `CommWorld`s (e.g. unit
//!   tests running concurrently) can share the global pool safely.
//! - Worker panics are caught, counted, and re-raised on the submitting
//!   thread after the job drains, so a panicking kernel cannot leave a
//!   dangling job pointer behind.
//!
//! The pool size comes from `POP_BARO_THREADS` if set, else the machine's
//! available parallelism.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// A job: a borrowed `Fn(usize)` with its lifetime erased. Only dereferenced
/// between epoch publication and the final worker check-in, during which the
/// submitter is blocked and the referent is alive.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync + 'static));

// SAFETY: the pointer is only dereferenced while the owning stack frame is
// pinned in `run_indexed` (see module docs).
unsafe impl Send for Job {}

struct State {
    /// Bumped once per job; workers wake when it changes.
    epoch: u64,
    /// Workers that have not yet finished the current job.
    remaining: usize,
    /// Number of indices in the current job.
    n_items: usize,
    task: Option<Job>,
    /// Set if any worker's kernel panicked during the current job.
    panicked: bool,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    start: Condvar,
    done: Condvar,
    /// Next unclaimed index of the current job.
    cursor: AtomicUsize,
}

/// Persistent pool; see module docs.
pub struct ThreadPool {
    shared: Arc<Shared>,
    /// Worker threads (the submitter is an extra, so parallelism is
    /// `workers + 1`).
    workers: usize,
    /// Serializes jobs from concurrent submitters.
    submit: Mutex<()>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.n_threads())
            .finish()
    }
}

fn worker_loop(shared: Arc<Shared>) {
    let mut seen = 0u64;
    loop {
        let (job, n) = {
            let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
            while st.epoch == seen && !st.shutdown {
                st = shared.start.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            if st.shutdown {
                return;
            }
            seen = st.epoch;
            (st.task.expect("task published with epoch"), st.n_items)
        };
        // SAFETY: the submitter keeps the closure alive until `remaining`
        // drops to zero, which happens strictly after this dereference.
        let f = unsafe { &*job.0 };
        let result = catch_unwind(AssertUnwindSafe(|| loop {
            let i = shared.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            f(i);
        }));
        let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
        if result.is_err() {
            st.panicked = true;
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done.notify_all();
        }
    }
}

impl ThreadPool {
    /// Pool with total parallelism `threads` (spawns `threads - 1` workers).
    pub fn new(threads: usize) -> Self {
        let workers = threads.max(1) - 1;
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                remaining: 0,
                n_items: 0,
                task: None,
                panicked: false,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
            cursor: AtomicUsize::new(0),
        });
        let handles = (0..workers)
            .map(|k| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pop-baro-worker-{k}"))
                    .spawn(move || worker_loop(sh))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool {
            shared,
            workers,
            submit: Mutex::new(()),
            handles,
        }
    }

    /// Total parallelism (workers + the submitting thread).
    pub fn n_threads(&self) -> usize {
        self.workers + 1
    }

    /// Run `f(i)` for every `i in 0..n`, each index exactly once, across the
    /// pool plus the calling thread. Blocks until all indices are done.
    /// Allocation-free in steady state.
    pub fn run_indexed(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        if self.workers == 0 || n <= 1 {
            for i in 0..n {
                f(i);
            }
            return;
        }
        let _turn = self.submit.lock().unwrap_or_else(|e| e.into_inner());
        // Erase the closure's lifetime so workers can hold it as a `Job`.
        // SAFETY: the transmute changes only the trait object's lifetime
        // bound, not its layout. The erased pointer is dereferenced only by
        // workers between the epoch bump below and their `remaining`
        // check-in, and this frame does not return — not even by unwinding,
        // since its own share runs under `catch_unwind` — until `remaining`
        // is zero; `st.task` is cleared under the same lock before `f`'s
        // borrow ends. So `f` outlives every use of the pointer.
        let job = Job(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync),
                *const (dyn Fn(usize) + Sync + 'static),
            >(f as *const _)
        });
        {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            self.shared.cursor.store(0, Ordering::Relaxed);
            st.task = Some(job);
            st.n_items = n;
            st.remaining = self.workers;
            st.panicked = false;
            st.epoch = st.epoch.wrapping_add(1);
            self.shared.start.notify_all();
        }
        // Participate: claim indices alongside the workers. Catch panics so
        // an unwinding kernel still waits for the workers (who hold a raw
        // pointer into this frame) before propagating.
        let mine = catch_unwind(AssertUnwindSafe(|| loop {
            let i = self.shared.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            f(i);
        }));
        let worker_panicked = {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            while st.remaining > 0 {
                st = self.shared.done.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            st.task = None;
            std::mem::replace(&mut st.panicked, false)
        };
        if let Err(payload) = mine {
            std::panic::resume_unwind(payload);
        }
        if worker_panicked {
            panic!("a pool worker panicked while running a block kernel");
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            st.shutdown = true;
            self.shared.start.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Pool size used by [`global`]: `POP_BARO_THREADS` if set, else the
/// machine's available parallelism.
pub fn default_threads() -> usize {
    std::env::var("POP_BARO_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// The process-wide pool used by `CommWorld::threaded()`. Built lazily on
/// first use; shared by all worlds (jobs are serialized by the submit lock).
pub fn global() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| ThreadPool::new(default_threads()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn every_index_claimed_exactly_once() {
        let pool = ThreadPool::new(4);
        for n in [0usize, 1, 2, 3, 17, 1000] {
            let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            pool.run_indexed(n, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "n = {n}"
            );
        }
    }

    #[test]
    fn pool_of_one_runs_inline() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.n_threads(), 1);
        let sum = AtomicU64::new(0);
        pool.run_indexed(100, &|i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
    }

    #[test]
    fn reusable_across_many_jobs() {
        let pool = ThreadPool::new(3);
        let total = AtomicU64::new(0);
        for _ in 0..200 {
            pool.run_indexed(8, &|i| {
                total.fetch_add(i as u64, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 200 * 28);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = ThreadPool::new(4);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run_indexed(64, &|i| {
                if i == 13 {
                    panic!("boom");
                }
            });
        }));
        assert!(caught.is_err(), "panic must propagate to the submitter");
        // The pool must still be usable afterwards.
        let sum = AtomicU64::new(0);
        pool.run_indexed(10, &|i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 45);
    }

    #[test]
    fn concurrent_submitters_are_serialized() {
        let pool = Arc::new(ThreadPool::new(4));
        let total = Arc::new(AtomicU64::new(0));
        let mut joins = Vec::new();
        for _ in 0..4 {
            let p = Arc::clone(&pool);
            let t = Arc::clone(&total);
            joins.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    p.run_indexed(16, &|i| {
                        t.fetch_add(i as u64, Ordering::Relaxed);
                    });
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 4 * 50 * 120);
    }
}
